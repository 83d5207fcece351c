#!/usr/bin/env bash
# The DESIGN.md "Telemetry" metric table and the code must name the same
# nm_* metric series. CI runs this in the docs job; it exits nonzero listing
# every name found on one side only:
#   * an nm_* series the code emits that DESIGN.md does not document, and
#   * a backticked nm_* name in DESIGN.md that the code no longer emits (a
#     removed series must not leave a stale doc row).
#
# Extraction rule: any "nm_..." string literal in src/ or examples/ is
# considered a metric name. Test-only names (tests/ uses nm_test_* markers)
# are exempt — tests exercise the registry, they don't define the dataplane's
# metric surface.
set -euo pipefail
cd "$(dirname "$0")/.."

names=$(grep -rhoE '"nm_[a-z0-9_]+"' src/ examples/ | tr -d '"' | sort -u)
documented=$(grep -oE '`nm_[a-z0-9_]+`' DESIGN.md | tr -d '`' | sort -u)

bad=0
for n in $names; do
  if ! grep -q "\`$n\`" DESIGN.md; then
    echo "undocumented metric: $n (add it to the DESIGN.md telemetry table)"
    bad=1
  fi
done
for n in $documented; do
  if ! grep -rqF "\"$n\"" src/ examples/; then
    echo "stale metric doc: $n (DESIGN.md names it; no \"$n\" literal in src/ or examples/)"
    bad=1
  fi
done

if [ "$bad" -ne 0 ]; then
  exit 1
fi
echo "all $(echo "$names" | wc -l) nm_* metric names match between the code and DESIGN.md"
