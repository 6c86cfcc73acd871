# steps.sh — step/step_done, sourced by check.sh and bench.sh: they
# bracket every gate stage with a uniform wall-clock line, so a CI log
# diff immediately shows which stage regressed.

# now prints the epoch second. `date +%s` is a GNU/BSD extension (POSIX
# date has no %s), so dash/minimal-sh environments need the awk route:
# srand() with no argument seeds from the clock and returns the previous
# seed, so calling it twice yields the current epoch portably.
now() {
    awk 'BEGIN { srand(); print srand() }'
}

step() {
    echo "==> $1"
    step_started=$(now)
}
step_done() {
    echo "    wall-clock: $(( $(now) - step_started ))s"
}
