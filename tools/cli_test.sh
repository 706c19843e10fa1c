#!/bin/sh
# End-to-end exercise of every sgq_cli command; any failure aborts.
set -e
CLI="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$CLI" generate --out "$DIR/db.txt" --graphs 25 --vertices 24 --degree 3 \
  --labels 5 --seed 7
"$CLI" stats --db "$DIR/db.txt" | grep -q "graphs:            25"
"$CLI" genq --db "$DIR/db.txt" --out "$DIR/q.txt" --edges 6 --count 8 \
  --kind dense --seed 3
"$CLI" query --db "$DIR/db.txt" --queries "$DIR/q.txt" --engine CFQL \
  | grep -q "summary: 8 queries"
"$CLI" index --db "$DIR/db.txt" --type GGSX --out "$DIR/idx.bin"
"$CLI" filter --index "$DIR/idx.bin" --type GGSX --queries "$DIR/q.txt" \
  | grep -q "query 0:"
"$CLI" standin --profile PCM --count-scale 0.05 --size-scale 0.1 \
  --out "$DIR/pcm.txt" --seed 2
"$CLI" crosscheck --db "$DIR/db.txt" --queries "$DIR/q.txt" \
  --time-limit 30 --build-limit 120 > "$DIR/crosscheck.txt"
grep -q "agree on 8 queries" "$DIR/crosscheck.txt"
# Coverage: every engine the factory knows (listed by the unknown-engine
# error) must print an "agrees" row, so no engine drops out of crosscheck.
KNOWN=$("$CLI" query --db "$DIR/db.txt" --queries "$DIR/q.txt" \
  --engine NoSuchEngine 2>&1 | sed -n 's/^unknown engine: NoSuchEngine (known: \(.*\))$/\1/p' || true)
if [ -z "$KNOWN" ]; then
  echo "no engine list in the unknown-engine error" >&2
  exit 1
fi
for name in $KNOWN; do
  if ! grep -Eq "^$name +[0-9.]+ +[0-9.]+ +0 agrees$" "$DIR/crosscheck.txt"; then
    echo "crosscheck has no agrees row for $name" >&2
    exit 1
  fi
done
# Error paths must fail cleanly.
if "$CLI" query --db /nonexistent --queries "$DIR/q.txt" 2>/dev/null; then
  echo "expected failure for missing db" >&2
  exit 1
fi
if "$CLI" bogus-command 2>/dev/null; then
  echo "expected usage failure" >&2
  exit 1
fi
echo "cli_test OK"
