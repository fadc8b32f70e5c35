#!/usr/bin/env bash
# Cross-compiles the module for arm64 with the compiler's assembly listing
# and fails on any fused multiply-add (FMADD, FMSUB, FNMADD, FNMSUB) whose
# source line is not in .github/fma-allowlist.txt, or on an allowlist entry
# the compiler no longer fuses. amd64 never fuses, so this is how an amd64
# machine checks that the bit-exact gates (pins, golden snapshots, live ==
# replay) do not depend on the architecture.
#
# Usage: bash .github/check-fma.sh   (from anywhere inside the repository)
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD/

if ! asm=$(GOARCH=arm64 go build -gcflags=-S ./... 2>&1); then
	echo "$asm" >&2
	exit 1
fi
fused=$(grep -E '\sFN?M(ADD|SUB)[DS]\s' <<<"$asm" | grep -oE '\([^()]+\.go:[0-9]+\)' |
	tr -d '()' | sed "s|^$root||" | sort -u || true)
allowed=$(grep -vE '^(#|$)' .github/fma-allowlist.txt | cut -d' ' -f1 | sort -u)

status=0
for site in $(comm -23 <(echo "$fused") <(echo "$allowed")); do
	echo "fused multiply-add at $site: write float64(x*y) + z, or allowlist it with a reason" >&2
	status=1
done
for site in $(comm -13 <(echo "$fused") <(echo "$allowed")); do
	echo "allowlisted $site is no longer fused: remove it from .github/fma-allowlist.txt" >&2
	status=1
done
if [ $status -eq 0 ]; then
	echo "fused multiply-adds only at allowlisted lines: $(echo $fused)"
fi
exit $status
