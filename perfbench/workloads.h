// The benchmark's workloads.  Each generates its inputs from
// Options::seed, times its set-up several times and one pass over the
// inputs, and returns its output hash, coverage, operation counts and
// metrics: the end-to-end metrics when Options::trace is off, the
// per-layer metrics of the layers it loads (from a second, traced pass)
// when it is on.
// perfbench/NOTES.md says what each metric measures and which end-to-end
// metric it should move.
#pragma once

#include "report.h"

namespace perfbench {

/// The six shipped single-cell configs, serially, over seeds derived from
/// the benchmark seed, each run audited.
Outcome RunCellMix(const Options& options);

/// One generated city through ShardEngine on `workers` threads, audited.
Outcome RunCity(const Options& options, int workers);

/// Table 1's iperf traces synthesized by phy and classified by SiftBatch.
Outcome RunSiftSignal(const Options& options);

}  // namespace perfbench
