let guarantees_safe sys =
  let d = Dgraph.build_pair sys in
  Dgraph.num_vertices d < 2 || Dgraph.is_strongly_connected d
