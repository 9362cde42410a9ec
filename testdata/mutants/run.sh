#!/usr/bin/env bash
# Mutant driver. Each *.patch in this directory plants one known defect
# (a pooled buffer that is never released, or released twice, an
# allocation on a hot path, with a sink file that makes it escape, a
# broken object-store recovery rule, a breach of a design rule that
# internal/lint checks or once checked, a recorded counter or accessor
# bug, or a broken group-commit, replication or trace-wiring fact). For
# each patch the driver checks the tree out into a scratch git worktree,
# applies the patch and runs every test the patch's header names; each
# of them must fail. A patch that no longer applies, a mutant that does
# not build, or a named test that passes fails the driver, so a change
# that stops a test from biting, or rewrites the code under a mutant,
# shows here.
#
# A patch starts with a header, then the diff:
#
#   Mutant: <letter> - <what the defect is>
#   Catch: <package> <test>      (one line per test that must fail)
#
# A test fails when `go test -run '^<test>$'` exits non-zero and prints
# `--- FAIL: <test>` (a panic inside the test prints it too) or the
# -timeout panic (a hang counts as a catch).
#
# Usage: bash testdata/mutants/run.sh [patch...]
#
# With no arguments it runs every patch here. It checks the tracked
# files as they are in the working tree (`git stash create`), or HEAD
# when the tree is clean. MUTANT_TIMEOUT sets go test's -timeout
# (default 120s). Worktrees go under $TMPDIR and are removed on exit.
set -u

patches=()
for p in "$@"; do
	patches+=("$(realpath "$p")")
done
cd "$(dirname "$0")/../.." || exit 1
if [ ${#patches[@]} -eq 0 ]; then
	patches=("$PWD"/testdata/mutants/*.patch)
fi
timeout=${MUTANT_TIMEOUT:-120s}
rev=$(git stash create)
rev=${rev:-HEAD}

work=$(mktemp -d)
tree=$work/tree
trap 'git worktree remove --force "$tree" >/dev/null 2>&1; rm -rf "$work"' EXIT

bad=0
for p in "${patches[@]}"; do
	name=$(basename "$p" .patch)
	if ! git worktree add --quiet --detach "$tree" "$rev"; then
		echo "FAIL $name: cannot check out $rev"
		exit 1
	fi
	catches=$(sed -n 's/^Catch: //p' "$p")
	if ! git -C "$tree" apply "$p"; then
		echo "FAIL $name: the patch no longer applies"
		bad=1
	elif [ -z "$catches" ]; then
		echo "FAIL $name: the header names no test"
		bad=1
	else
		while read -r pkg test; do
			out=$(cd "$tree" && go test -count=1 -timeout "$timeout" -run "^${test}\$" "$pkg" 2>&1)
			if [ $? -eq 0 ]; then
				echo "FAIL $name: $pkg $test passes with the defect in"
				bad=1
			elif grep -q -e "--- FAIL: $test" -e "panic: test timed out" <<<"$out"; then
				echo "ok   $name: $pkg $test fails"
			else
				echo "FAIL $name: $pkg $test did not run to a failure:"
				tail -20 <<<"$out"
				bad=1
			fi
		done <<<"$catches"
	fi
	git worktree remove --force "$tree"
done
exit $bad
