# Checks one Prometheus text exposition file: every family is declared
# once by a `# TYPE` line of a known kind, and every sample line parses
# and sits in its own family's block. Prints one line per problem, and
# nothing for a well-formed file.
#
#   awk -f prom.awk metrics.prom

/^# HELP / { next }

/^# TYPE / {
  if ($3 in declared) print FNR ": family " $3 " declared twice"
  if ($4 != "counter" && $4 != "gauge" && $4 != "histogram")
    print FNR ": family " $3 " has unknown kind " $4
  declared[$3] = 1
  family = $3
  next
}

/^$/ { next }

{
  samples++
  if ($0 !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.e+-]+|\+Inf|NaN)$/)
    print FNR ": unparseable sample: " $0
  name = $0
  sub(/[{ ].*/, "", name)
  base = name
  sub(/_(bucket|sum|count)$/, "", base)
  if (name != family && base != family)
    print FNR ": sample " name " outside its family block"
}

END { if (samples == 0) print "no samples" }
