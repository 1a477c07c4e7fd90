//===- examples/quickstart.cpp - end-to-end LLM-Vectorizer walkthrough --------===//
//
// Quickstart: take a scalar C loop, let the vectorization service run the
// paper's full Figure-2 workflow — multi-agent FSM against the (simulated)
// LLM, checksum testing, then the Algorithm-1 verification funnel — in one
// request. The same submit()/wait() API batches thousands of functions
// across a worker pool; see src/svc/README.md.
//
//   $ ./quickstart
//   $ ./quickstart --trace trace.json      # timeline for chrome://tracing
//
//===----------------------------------------------------------------------===//

#include "bench/Harness.h"
#include "svc/Service.h"

#include <cstdio>

using namespace lv;

int main(int argc, char **argv) {
  bench::BenchOptions Opt = bench::parseBenchArgs(argc, argv);
  const char *Scalar = R"(
void saxpyish(int n, int s, int *a, int *b) {
  for (int i = 0; i < n; i++) {
    a[i] = a[i] + s * b[i];
  }
})";

  std::printf("Input scalar loop:\n%s\n\n", Scalar);

  // One Pipeline request = FSM generation + formal verification. With
  // --store DIR the verdict persists, so a rerun answers from disk.
  svc::Request R;
  R.Mode = svc::RunMode::Pipeline;
  R.Name = "saxpyish";
  R.ScalarSource = Scalar;
  R.Seed = 2024;
  svc::ServiceConfig SC;
  SC.StorePath = Opt.StorePath;
  svc::Outcome O = svc::runOne(std::move(R), SC);
  if (!O.Fsm.Plausible) {
    std::printf("no plausible vectorization found in %d attempts\n",
                O.Fsm.Attempts);
    bench::writeObsArtifacts(Opt);
    return 1;
  }
  std::printf("plausible candidate after %d attempt(s):\n%s\n",
              O.Fsm.Attempts, O.Fsm.FinalCandidate.c_str());

  std::printf("\nverification: %s (decided by %s stage)\n",
              core::outcomeName(O.Equiv.Final),
              core::stageName(O.Equiv.DecidedBy));
  std::printf("detail: %s\n", O.Equiv.Detail.c_str());
  std::printf("wall: %.1fms\n", static_cast<double>(O.WallNanos) / 1e6);
  bench::writeObsArtifacts(Opt);
  return O.verified() ? 0 : 1;
}
