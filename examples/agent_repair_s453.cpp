//===- examples/agent_repair_s453.cpp - the §4.4.2 repair dialogue ------------===//
//
// Replays the paper's s453 walkthrough: the vectorizer agent's first
// attempt broadcasts the induction scalar (wrong), the compiler tester
// feeds back a concrete input/output mismatch, and the second attempt uses
// the correct lane ramp. Prints the full agent transcript and then
// formally verifies the repaired candidate.
//
//===----------------------------------------------------------------------===//

#include "bench/Harness.h"
#include "support/Format.h"
#include "svc/Service.h"
#include "tsvc/Suite.h"

#include <cstdio>

using namespace lv;

int main(int argc, char **argv) {
  bench::BenchOptions Opt = bench::parseBenchArgs(argc, argv);
  const tsvc::TsvcTest *T = tsvc::findTest("s453");
  std::printf("scalar s453:\n%s\n\n", T->Source.c_str());

  // Search seeds until the first attempt misfires and the loop repairs it
  // (the paper's two-attempt run): Generate requests batched in waves of
  // one worker-pool width, scanned in seed order for determinism — a hit
  // in an early wave never pays for the later seeds.
  svc::ServiceConfig SC;
  SC.Workers = 4;
  svc::VectorizerService Service(SC);

  for (uint64_t Wave = 0; Wave < 64; Wave += 4) {
    std::vector<svc::Request> Batch;
    for (uint64_t Seed = Wave; Seed < Wave + 4; ++Seed) {
      svc::Request R;
      R.Mode = svc::RunMode::Generate;
      R.Name = format("s453@%llu", static_cast<unsigned long long>(Seed));
      R.ScalarSource = T->Source;
      R.Seed = Seed;
      Batch.push_back(std::move(R));
    }
    std::vector<svc::Ticket> Tickets = Service.submitBatch(std::move(Batch));

    for (uint64_t Lane = 0; Lane < Tickets.size(); ++Lane) {
      uint64_t Seed = Wave + Lane;
      const svc::Outcome &O = Service.wait(Tickets[Lane]);
      if (O.Failed) {
        std::printf("seed %llu failed: %s\n",
                    static_cast<unsigned long long>(Seed), O.Error.c_str());
        bench::writeObsArtifacts(Opt);
        return 1;
      }
      const agents::FsmResult &R = O.Fsm;
      if (!(R.Plausible && R.Attempts >= 2))
        continue;

      std::printf("seed %llu: repaired in %d attempts; transcript:\n\n",
                  static_cast<unsigned long long>(Seed), R.Attempts);
      for (const agents::Message &M : R.Transcript)
        std::printf("--- %s -> %s ---\n%s\n\n", M.From.c_str(),
                    M.To.c_str(), M.Content.c_str());

      std::printf("FSM states: ");
      for (agents::State S : R.Transitions)
        std::printf("%s ", agents::stateName(S));
      std::printf("\n\n");

      // The --store wiring rides only this verify call: the Generate
      // service above keeps a memory-only cache, and a single store owner
      // per process keeps the log single-writer.
      svc::Request VR;
      VR.Mode = svc::RunMode::Verify;
      VR.ScalarSource = T->Source;
      VR.CandidateSource = R.FinalCandidate;
      svc::ServiceConfig VSC;
      VSC.StorePath = Opt.StorePath;
      core::EquivResult E = svc::runOne(std::move(VR), VSC).Equiv;
      std::printf("formal verification of the repaired candidate: %s "
                  "(stage: %s)\n",
                  core::outcomeName(E.Final), core::stageName(E.DecidedBy));
      bench::writeObsArtifacts(Opt);
      return 0;
    }
  }
  std::printf("no seed in range produced a multi-attempt repair\n");
  bench::writeObsArtifacts(Opt);
  return 1;
}
