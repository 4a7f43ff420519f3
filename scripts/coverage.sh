#!/bin/sh
# Coverage ratchet: run the full test suite with statement coverage and
# fail if any package listed in scripts/coverage_ratchet.txt reports
# coverage below its checked-in floor, or disappears from the test
# output entirely (e.g. a package rename that silently drops its floor).
set -eu
cd "$(dirname "$0")/.."

ratchet=scripts/coverage_ratchet.txt
# Print the test output before acting on go test's status, so a failing
# test is named here rather than lost with the captured output.
status=0
out=$(go test -cover ./...) || status=$?
echo "$out"
if [ "$status" -ne 0 ]; then
	exit "$status"
fi

echo "$out" | awk -v ratchet="$ratchet" '
BEGIN {
	while ((getline line < ratchet) > 0) {
		if (line ~ /^#/ || line == "") continue
		split(line, f, " ")
		floor[f[1]] = f[2] + 0
	}
	close(ratchet)
}
$1 == "ok" {
	pkg = $2
	pct = -1
	for (i = 3; i <= NF; i++) {
		if ($i == "coverage:" && $(i + 1) ~ /%$/) {
			p = $(i + 1)
			sub(/%/, "", p)
			pct = p + 0
		}
	}
	if (pkg in floor) {
		seen[pkg] = 1
		if (pct < floor[pkg]) {
			printf "coverage ratchet: %s at %.1f%% is below its floor of %d%%\n", pkg, pct, floor[pkg]
			bad = 1
		}
	}
}
END {
	for (pkg in floor) {
		if (!(pkg in seen)) {
			printf "coverage ratchet: %s is listed in %s but absent from go test -cover output\n", pkg, ratchet
			bad = 1
		}
	}
	if (bad) exit 1
}'

echo "coverage ratchet OK"
