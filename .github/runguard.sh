#!/usr/bin/env bash
# runguard.sh PATTERN PACKAGE...
#
# Fails unless every |-separated alternative of the `go test -run` PATTERN
# selects at least one test, fuzz target or example in PACKAGE...; prints
# the count per alternative. A whole-pattern count would let one stale
# alternative (its tests renamed or deleted) pass silently behind the
# others. Alternatives are split at every |, so PATTERN must not group
# alternations in parentheses.
set -euo pipefail
pattern=$1
shift
listed=$(go test -list "$pattern" "$@" | grep -E '^(Test|Fuzz|Example)' || true)
IFS='|' read -ra alts <<<"$pattern"
status=0
for alt in "${alts[@]}"; do
	n=$(grep -cE -e "$alt" <<<"$listed" || true)
	echo "$alt: $n"
	if [ "$n" -eq 0 ]; then
		echo "runguard: -run alternative '$alt' selects nothing in $*" >&2
		status=1
	fi
done
exit "$status"
