let guarantees_safe sys = Dgraph.is_strongly_connected (Dgraph.build_pair sys)
