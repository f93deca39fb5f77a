// The host's speed at a moment of the run.  On a shared guest the speed of
// a vCPU drifts by a third or more for seconds to minutes at a time, with
// CPU time tracking wall time, so two runs of the same code can differ by
// more than any bound a benchmark could set.  A fixed piece of work that
// calls nothing in the program, timed between requests, tells how fast the
// host was then; perfbench/amgbench/report.py scales each time the run
// took by it (perfbench/README.md, "Host speed").
#pragma once

namespace perfbench {

/// Milliseconds of one host-speed sample: the median of five timings of
/// the fixed work.  The work keeps a 16 KiB table, so it leaves the
/// program's caches nearly as it found them.
double hostSampleMs();

}  // namespace perfbench
