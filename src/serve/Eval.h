//===-- serve/Eval.h - Request evaluation on the oracle core ----*- C++ -*-===//
///
/// \file
/// Turns one EvalRequest into the bytes of a `cerb-oracle-report/1`
/// document. This is the cold path behind the result cache: one
/// oracle::runJob per requested policy against the daemon-lifetime
/// CompileCache (so the expensive front half — parse, desugar, typecheck,
/// elaborate — is computed once per distinct source across *all* requests
/// and policy variants, the Lööw et al. observation the ISSUE cites).
///
/// Determinism: the report is serialized with IncludeTimings=false, trace
/// counters are NOT embedded (concurrent requests would interleave
/// registry deltas), and the batch-level compile-cache fields are derived
/// from the request shape alone — so the bytes depend only on the request,
/// never on daemon state, concurrency, or --jobs.
///
//===----------------------------------------------------------------------===//
#ifndef CERB_SERVE_EVAL_H
#define CERB_SERVE_EVAL_H

#include "exec/CompileCache.h"
#include "serve/Protocol.h"

#include <string>

namespace cerb::serve {

/// Builds the oracle jobs for \p Q (one per policy, in request order).
std::vector<oracle::Job> requestJobs(const EvalRequest &Q);

/// Evaluates \p Q and serializes the result. Compile errors, budget trips,
/// and deadlines are inside the report (per-job statuses), never failures
/// of the call itself.
std::string evaluateToReport(const EvalRequest &Q,
                             exec::CompileCache &Compiles);

} // namespace cerb::serve

#endif // CERB_SERVE_EVAL_H
