// The benchmark's workloads. Each runs its seeded operation list untraced
// for the end-to-end metrics, or, with Options::trace, untraced and then as
// a traced in-process replay for the per-layer metrics.
#pragma once

#include "ops.hpp"

namespace perfbench {

/// The five ISCAS85-like circuits through RunSession (no cache) at htp_cli
/// defaults plus refine, serial FLOW (threads = 1).
RunResult RunIscasFlow(const Options& options);

/// 50k- and 100k-gate Rent circuits through RunSession with multilevel and
/// refine, threads = nproc.
RunResult RunRentMultilevel(const Options& options);

/// An htp_serve child process driven over nproc / 2 connections: cache-hit
/// and cold reads beside ECO writes.
RunResult RunServeEco(const Options& options);

/// Checks the self-time arithmetic and runs every workload at self-test
/// size, untraced and traced. Returns the number of failures.
int RunSelfTest(const Options& options);

}  // namespace perfbench
