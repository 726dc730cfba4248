#!/bin/sh
# Print the behaviour contract of one quick-suite run: the sha256 of its
# stdout tables and of its --metrics-out document, then one
# `experiment/cell trace_digest` line per cell so that drift is localised.
#
# DIR must hold `stdout.txt` and `metrics.json` from
#   nfv-bench --quick --metrics-out DIR/metrics.json > DIR/stdout.txt
# The output is compared against the committed results/golden.txt:
#   sh results/golden.sh DIR | diff -u results/golden.txt -
set -eu
dir=${1:?usage: sh results/golden.sh DIR}
cd "$dir"
sha256sum stdout.txt metrics.json
python3 -c '
import json, sys
for c in json.load(open(sys.argv[1]))["cells"]:
    print("%s/%s %016x" % (c["experiment"], c["cell"], c["trace_digest"]))
' metrics.json
