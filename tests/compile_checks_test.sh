#!/bin/sh
# Asserts that the build's error flags make each compiler check the project
# relies on an error: every fixture under tests/compile_fixtures/ must fail
# to compile, and the compiler's output must contain the text the fixture
# names on its `// expect-error:` line. Run by the compile_checks ctest entry.
#
# usage: compile_checks_test.sh <source_dir> <compiler> [flags...]
set -u

SRC="$1"
shift

FAILED=0
for FIXTURE in "$SRC"/tests/compile_fixtures/*.cc; do
  NAME=$(basename "$FIXTURE")
  EXPECT=$(sed -n 's|^// expect-error: ||p' "$FIXTURE")
  if [ -z "$EXPECT" ]; then
    echo "FAIL: $NAME has no '// expect-error:' line"
    FAILED=1
  elif OUT=$("$@" -I"$SRC" "$FIXTURE" 2>&1); then
    echo "FAIL: $NAME compiled; '$EXPECT' is not an error under these flags"
    FAILED=1
  elif ! echo "$OUT" | grep -q "$EXPECT"; then
    echo "FAIL: $NAME failed without '$EXPECT':"
    echo "$OUT"
    FAILED=1
  else
    echo "PASS: $NAME: $EXPECT"
  fi
done
exit "$FAILED"
