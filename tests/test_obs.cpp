//===- tests/test_obs.cpp - observability spine tests -------------------------===//
//
// The obs contract: (1) spans nest and order correctly and the recorded
// event multiset is bit-identical at any svc worker count; (2) the metrics
// counters aggregate exactly — concurrent increments never lose updates,
// and the interp.* counters reproduce the StageInterpWork tallies svc
// aggregates from the same checksum runs; (3) disabled mode records
// nothing while still feeding the duration outputs the EquivResult nanos
// fields are sourced from; (4) both exported JSON documents are
// well-formed per the depth-limited RFC 8259 validator, which itself
// rejects the classic malformed inputs.
//
//===----------------------------------------------------------------------===//

#include "obs/Flight.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "svc/Service.h"
#include "tsvc/Suite.h"
#include "tv/Refine.h"
#include "vir/Compile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

using namespace lv;

namespace {

/// Busy-waits until the trace clock advances so a span around this is
/// guaranteed a nonzero duration.
void spinOneTick() {
  uint64_t T0 = obs::traceClockNanos();
  while (obs::traceClockNanos() == T0) {
  }
}

/// Scoped tracing enable: tests must never leak a tracing state change
/// into later tests in the same binary.
struct ScopedTracing {
  explicit ScopedTracing(bool On) : Prev(obs::tracingEnabled()) {
    obs::resetTrace();
    obs::setTracingEnabled(On);
  }
  ~ScopedTracing() {
    obs::setTracingEnabled(Prev);
    obs::resetTrace();
  }
  bool Prev;
};

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

TEST(Trace, SpanNestingDepthAndContainment) {
  ScopedTracing On(true);
  uint64_t OuterNs = 0;
  {
    obs::Span Outer("test", "outer", &OuterNs);
    Outer.arg("k", 41);
    Outer.argStr("who", "outer-span");
    {
      obs::Span Inner("test", "inner");
      Inner.arg("k", 1);
      spinOneTick();
    }
    {
      obs::Span Inner("test", "inner");
      Inner.arg("k", 2);
      spinOneTick();
    }
  }
  std::vector<obs::TraceEvent> Events = obs::snapshotTrace();
  ASSERT_EQ(Events.size(), 3u);
  std::sort(Events.begin(), Events.end(),
            [](const obs::TraceEvent &A, const obs::TraceEvent &B) {
              return A.StartNs < B.StartNs;
            });
  const obs::TraceEvent &Outer = Events[0];
  EXPECT_STREQ(Outer.Name, "outer");
  EXPECT_STREQ(Outer.Cat, "test");
  EXPECT_EQ(Outer.Depth, 0u);
  ASSERT_EQ(Outer.Args.size(), 1u);
  EXPECT_STREQ(Outer.Args[0].Key, "k");
  EXPECT_EQ(Outer.Args[0].Val, 41u);
  ASSERT_EQ(Outer.StrArgs.size(), 1u);
  EXPECT_EQ(Outer.StrArgs[0].Val, "outer-span");
  EXPECT_GT(Outer.DurNs, 0u);
  EXPECT_EQ(OuterNs, Outer.DurNs);
  for (size_t I = 1; I < 3; ++I) {
    const obs::TraceEvent &Inner = Events[I];
    EXPECT_STREQ(Inner.Name, "inner");
    EXPECT_EQ(Inner.Depth, 1u) << "nested span depth";
    EXPECT_EQ(Inner.Tid, Outer.Tid) << "same thread";
    // Containment on the shared monotonic clock.
    EXPECT_GE(Inner.StartNs, Outer.StartNs);
    EXPECT_LE(Inner.StartNs + Inner.DurNs, Outer.StartNs + Outer.DurNs);
  }
  // The two inner spans are ordered and disjoint.
  EXPECT_GE(Events[2].StartNs, Events[1].StartNs + Events[1].DurNs);
}

TEST(Trace, DisabledModeRecordsNothingButFeedsDurations) {
  ScopedTracing Off(false);
  uint64_t Ns = 0;
  {
    obs::Span S("test", "untraced", &Ns);
    EXPECT_FALSE(S.active());
    S.arg("k", 1);               // must be a no-op, not a crash
    S.argStr("who", "nobody");   // ditto — and must not allocate a copy
    spinOneTick();
  }
  EXPECT_GT(Ns, 0u) << "DurOut accumulates even with tracing off";
  {
    obs::Span S("test", "untraced-no-dur");
    EXPECT_FALSE(S.active());
  }
  EXPECT_TRUE(obs::snapshotTrace().empty());
  EXPECT_EQ(obs::traceStats().Events, 0u);
}

TEST(Trace, DurOutAccumulatesAcrossSpans) {
  ScopedTracing Off(false);
  uint64_t Ns = 0;
  for (int I = 0; I < 3; ++I) {
    obs::Span S("test", "accum", &Ns);
    spinOneTick();
  }
  uint64_t After3 = Ns;
  {
    obs::Span S("test", "accum", &Ns);
    spinOneTick();
  }
  EXPECT_GT(After3, 0u);
  EXPECT_GT(Ns, After3) << "+= semantics, not overwrite";
}

TEST(Trace, ChromeJsonIsValidAndRebased) {
  ScopedTracing On(true);
  {
    obs::Span S("test", "alpha");
    S.argStr("msg", "quote \" backslash \\ newline \n tab \t");
    spinOneTick();
  }
  std::string Doc = obs::traceChromeJson();
  std::string Err;
  std::vector<std::string> Keys;
  EXPECT_TRUE(obs::json::validate(Doc, &Err, &Keys)) << Err;
  ASSERT_EQ(Keys.size(), 1u);
  EXPECT_EQ(Keys[0], "traceEvents");
  // Rebased: the earliest event starts at ts 0.
  EXPECT_NE(Doc.find("\"ts\": 0.000"), std::string::npos);
}

/// Serializes the fields of an event that must be identical across worker
/// counts (everything but timing and thread placement).
std::string eventKey(const obs::TraceEvent &Ev) {
  std::string K = std::string(Ev.Cat) + "|" + Ev.Name + "|d" +
                  std::to_string(Ev.Depth);
  for (const obs::TraceArg &A : Ev.Args)
    K += std::string("|") + A.Key + "=" + std::to_string(A.Val);
  for (const obs::TraceStrArg &A : Ev.StrArgs)
    K += std::string("|") + A.Key + "=" + A.Val;
  return K;
}

interp::ChecksumConfig fastChecksum() {
  interp::ChecksumConfig C;
  C.RunsPerN = 1;
  C.NValues = {0, 8, 32};
  C.BufferLen = 128;
  return C;
}

core::EquivConfig fastEquiv() {
  core::EquivConfig Cfg;
  Cfg.Checksum = fastChecksum();
  Cfg.ScalarMax = 4;
  Cfg.MaxTerms = 30'000;
  Cfg.Alive2Budget = 100;
  Cfg.CUnrollBudget = 200;
  Cfg.SplitBudget = 50;
  return Cfg;
}

/// Verify-mode batch over a small TSVC slice (candidate == scalar, so the
/// funnel does real checksum + solver work on every task).
std::vector<svc::Request> sliceBatch(size_t N) {
  std::vector<svc::Request> Out;
  for (size_t I = 0; I < N && I < tsvc::suite().size(); ++I) {
    const tsvc::TsvcTest &T = tsvc::suite()[I];
    svc::Request R;
    R.Mode = svc::RunMode::Verify;
    R.Name = T.Name;
    R.ScalarSource = T.Source;
    R.CandidateSource = T.Source;
    R.Equiv = fastEquiv();
    Out.push_back(std::move(R));
  }
  return Out;
}

std::vector<std::string> tracedSliceKeys(int Workers, size_t N) {
  ScopedTracing On(true);
  svc::ServiceConfig SC;
  SC.Workers = Workers;
  SC.EnableVerdictCache = false; // replays would skip the traced work
  svc::VectorizerService S(SC);
  std::vector<svc::Ticket> Tickets = S.submitBatch(sliceBatch(N));
  for (svc::Ticket T : Tickets)
    (void)S.wait(T);
  std::vector<obs::TraceEvent> Events = obs::snapshotTrace();
  std::vector<std::string> Keys;
  Keys.reserve(Events.size());
  for (const obs::TraceEvent &Ev : Events)
    Keys.push_back(eventKey(Ev));
  std::sort(Keys.begin(), Keys.end());
  return Keys;
}

TEST(Trace, EventMultisetIdenticalAcrossWorkerCounts) {
  const size_t N = 6;
  std::vector<std::string> One = tracedSliceKeys(1, N);
  std::vector<std::string> Two = tracedSliceKeys(2, N);
  std::vector<std::string> Eight = tracedSliceKeys(8, N);
  ASSERT_FALSE(One.empty());
  // Every task contributes at least its task.verify span and the
  // stage.checksum span.
  EXPECT_GE(One.size(), 2 * N);
  EXPECT_EQ(One, Two) << "1-vs-2 worker span divergence";
  EXPECT_EQ(One, Eight) << "1-vs-8 worker span divergence";
}

TEST(Trace, RefinementSplitsEncodingFromSolving) {
  // One symbolic-execution span per session, and smt.blast spans for the
  // base blast (outside any query) and the query's own blast (inside
  // tv.query), so a trace separates encoding from SAT search.
  vir::CompileResult Src = vir::compileFunction(
      "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) "
      "a[i] = b[i] + 1; }");
  vir::CompileResult Tgt = vir::compileFunction(R"(
    void f(int n, int *a, int *b) {
      __m256i one = _mm256_set1_epi32(1);
      for (int i = 0; i < n; i += 8) {
        __m256i v = _mm256_loadu_si256((__m256i *)&b[i]);
        _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(v, one));
      }
    })");
  ASSERT_TRUE(Src.ok() && Tgt.ok()) << Src.Error << Tgt.Error;
  tv::RefineOptions O;
  O.ScalarMax = 8;
  O.SrcExec = tv::ExecOptions{10, 16};
  O.TgtExec = tv::ExecOptions{3, 16};
  O.CompareWindow = 16;
  O.Divs.push_back(tv::DivAssumption{"n", 0, 8});

  ScopedTracing On(true);
  tv::TVResult R = tv::checkRefinement(*Src.Fn, *Tgt.Fn, O);
  ASSERT_EQ(R.V, tv::TVVerdict::Equivalent) << R.Detail;
  std::vector<obs::TraceEvent> Events = obs::snapshotTrace();
  auto Named = [&](const char *Name) {
    std::vector<const obs::TraceEvent *> Out;
    for (const obs::TraceEvent &E : Events)
      if (std::string(E.Name) == Name)
        Out.push_back(&E);
    std::sort(Out.begin(), Out.end(),
              [](const obs::TraceEvent *A, const obs::TraceEvent *B) {
                return A->StartNs < B->StartNs;
              });
    return Out;
  };
  auto Inside = [](const obs::TraceEvent &In, const obs::TraceEvent &Out) {
    return In.StartNs >= Out.StartNs &&
           In.StartNs + In.DurNs <= Out.StartNs + Out.DurNs;
  };
  std::vector<const obs::TraceEvent *> Exec = Named("tv.symexec");
  std::vector<const obs::TraceEvent *> Blast = Named("smt.blast");
  std::vector<const obs::TraceEvent *> Query = Named("tv.query");
  ASSERT_EQ(Exec.size(), 1u);
  ASSERT_EQ(Query.size(), 1u);
  ASSERT_EQ(Blast.size(), 2u);
  EXPECT_FALSE(Inside(*Exec[0], *Query[0]));
  EXPECT_FALSE(Inside(*Blast[0], *Query[0])) << "base blast";
  EXPECT_TRUE(Inside(*Blast[1], *Query[0])) << "query blast";
  EXPECT_LE(Exec[0]->StartNs + Exec[0]->DurNs, Blast[0]->StartNs);
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

TEST(Metrics, CounterConcurrentIncrementsAreExact) {
  obs::Counter &C = obs::counter("test.concurrent");
  C.reset();
  constexpr int Threads = 8, PerThread = 100'000;
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&C] {
      for (int I = 0; I < PerThread; ++I)
        C.inc();
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(C.value(), uint64_t(Threads) * PerThread);
  // Same name returns the same instrument.
  EXPECT_EQ(&C, &obs::counter("test.concurrent"));
  EXPECT_EQ(obs::counterValue("test.concurrent"), C.value());
}

TEST(Metrics, HistogramBucketsAndConcurrency) {
  obs::Histogram &H = obs::histogram("test.hist");
  H.reset();
  H.observe(1);    // < 2        -> bucket 0
  H.observe(3);    // [2, 4)     -> bucket 1
  H.observe(1024); // [1024, 2048) -> bucket 10
  EXPECT_EQ(H.count(), 3u);
  EXPECT_EQ(H.sum(), 1028u);
  EXPECT_EQ(H.bucket(0), 1u);
  EXPECT_EQ(H.bucket(1), 1u);
  EXPECT_EQ(H.bucket(10), 1u);
  EXPECT_EQ(obs::Histogram::bucketBound(0), 2u);
  EXPECT_EQ(obs::Histogram::bucketBound(10), 2048u);
  EXPECT_EQ(obs::Histogram::bucketBound(obs::Histogram::NumBuckets - 1),
            UINT64_MAX);
  H.reset();
  constexpr int Threads = 4, PerThread = 50'000;
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&H] {
      for (int I = 0; I < PerThread; ++I)
        H.observe(7);
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(H.count(), uint64_t(Threads) * PerThread);
  EXPECT_EQ(H.sum(), uint64_t(Threads) * PerThread * 7);
  EXPECT_EQ(H.bucket(2), uint64_t(Threads) * PerThread); // 7 in [4, 8)
}

TEST(Metrics, ResetKeepsHandlesValid) {
  obs::Counter &C = obs::counter("test.reset");
  C.inc(5);
  obs::resetMetrics();
  EXPECT_EQ(C.value(), 0u);
  C.inc();
  EXPECT_EQ(C.value(), 1u);
  EXPECT_EQ(obs::counterValue("test.reset"), 1u);
  EXPECT_EQ(obs::counterValue("test.never-registered"), 0u);
}

TEST(Metrics, JsonScrapeIsValidWithExpectedKeys) {
  obs::counter("test.json").inc(3);
  obs::histogram("test.json_ns").observe(100);
  std::string Doc = obs::metricsJson();
  std::string Err;
  std::vector<std::string> Keys;
  ASSERT_TRUE(obs::json::validate(Doc, &Err, &Keys)) << Err;
  ASSERT_EQ(Keys.size(), 3u);
  EXPECT_EQ(Keys[0], "schema_version");
  EXPECT_EQ(Keys[1], "counters");
  EXPECT_EQ(Keys[2], "histograms");
  EXPECT_NE(Doc.find("\"test.json\": 3"), std::string::npos);
  EXPECT_NE(Doc.find("\"test.json_ns\""), std::string::npos);
}

TEST(Metrics, InterpCountersReproduceStageInterpWorkTally) {
  obs::resetMetrics();
  svc::ServiceConfig SC;
  SC.Workers = 4;
  SC.EnableVerdictCache = false; // cache replays would skip interp work
  svc::VectorizerService S(SC);
  const size_t N = 8;
  std::vector<svc::Ticket> Tickets = S.submitBatch(sliceBatch(N));
  svc::StageInterpWork Tally;
  svc::StageSatWork SatTally;
  size_t Tasks = 0;
  for (svc::Ticket T : Tickets) {
    const svc::Outcome &O = S.wait(T);
    ASSERT_FALSE(O.Failed) << O.Error;
    SatTally.add(O.Alive2Work);
    SatTally.add(O.CUnrollWork);
    SatTally.add(O.SplitWork);
    Tally.Instrs += O.ChecksumWork.Instrs;
    Tally.CandRuns += O.ChecksumWork.CandRuns;
    Tally.ScalarRuns += O.ChecksumWork.ScalarRuns;
    Tally.InputSets += O.ChecksumWork.InputSets;
    Tally.ScalarRunsSaved += O.ChecksumWork.ScalarRunsSaved;
    Tally.Traps += O.ChecksumWork.Traps;
    Tally.Hangs += O.ChecksumWork.Hangs;
    ++Tasks;
  }
  // The generic instruments and the svc tally structs count the same
  // work units — by construction, and verified here.
  EXPECT_EQ(obs::counterValue("interp.instrs"), Tally.Instrs);
  EXPECT_EQ(obs::counterValue("interp.cand_runs"), Tally.CandRuns);
  EXPECT_EQ(obs::counterValue("interp.scalar_runs"), Tally.ScalarRuns);
  EXPECT_EQ(obs::counterValue("interp.input_sets"), Tally.InputSets);
  EXPECT_EQ(obs::counterValue("interp.scalar_runs_saved"),
            Tally.ScalarRunsSaved);
  EXPECT_EQ(obs::counterValue("interp.traps"), Tally.Traps);
  EXPECT_EQ(obs::counterValue("interp.hangs"), Tally.Hangs);
  // One instrumented checksum run (a checksum.batch span) per Verify
  // task: stage 1 calls runChecksumTest once.
  EXPECT_EQ(obs::counterValue("interp.checksum_batches"), Tasks);
  EXPECT_EQ(obs::counterValue("svc.tasks"), Tasks);
  EXPECT_EQ(obs::counterValue("svc.tasks_failed"), 0u);
  // The tv.* counters aggregate the same TVResult fields the per-stage
  // StageSatWork tallies do.
  EXPECT_EQ(obs::counterValue("tv.conflicts"), SatTally.Conflicts);
  EXPECT_EQ(obs::counterValue("tv.propagations"), SatTally.Propagations);
  EXPECT_EQ(obs::counterValue("tv.restarts"), SatTally.Restarts);
}

//===----------------------------------------------------------------------===//
// JSON validator
//===----------------------------------------------------------------------===//

TEST(Json, AcceptsWellFormedDocuments) {
  std::string Err;
  EXPECT_TRUE(obs::json::validate("{}", &Err)) << Err;
  EXPECT_TRUE(obs::json::validate("[1, -2.5e3, 0.25]", &Err)) << Err;
  EXPECT_TRUE(obs::json::validate(
      "{\"a\": [true, false, null], \"b\": \"x\\u0041\\n\"}", &Err))
      << Err;
  std::vector<std::string> Keys;
  EXPECT_TRUE(
      obs::json::validate("{\"z\": 1, \"a\": {\"nested\": 2}}", &Err, &Keys));
  ASSERT_EQ(Keys.size(), 2u);
  EXPECT_EQ(Keys[0], "z"); // document order, not sorted
  EXPECT_EQ(Keys[1], "a");
}

TEST(Json, RejectsMalformedDocuments) {
  const char *Bad[] = {
      "",           // empty
      "{",          // unterminated object
      "[1, 2",      // unterminated array
      "{\"a\":}",   // missing value
      "{\"a\": 1,}", // trailing comma
      "{\"a\": 1} x", // trailing garbage
      "{'a': 1}",   // single quotes
      "nan",        // not a JSON literal
      "01",         // leading zero
      "\"\x01\"",   // raw control character in string
  };
  for (const char *Doc : Bad)
    EXPECT_FALSE(obs::json::validate(Doc)) << "accepted: " << Doc;
  // Depth limit: 100 nested arrays exceed MaxDepth.
  std::string Deep(100, '[');
  Deep += std::string(100, ']');
  EXPECT_FALSE(obs::json::validate(Deep));
}

//===----------------------------------------------------------------------===//
// Flight recorder
//===----------------------------------------------------------------------===//

TEST(Flight, RingSlowLogAndThreshold) {
  bool Prev = obs::flightEnabled();
  obs::setFlightEnabled(true);
  obs::resetFlight();

  // Walls on either side of the fixed slow-task threshold.
  obs::TaskRecord Fast;
  Fast.Name = "fast-task";
  Fast.Mode = "verify";
  Fast.Summary = "equivalent";
  Fast.WallNanos = obs::SlowTaskThresholdNanos - 1;
  obs::recordTask(Fast);

  obs::TaskRecord Slow;
  Slow.Name = "slow-task";
  Slow.Mode = "sample";
  Slow.Summary = "100 samples";
  Slow.WallNanos = obs::SlowTaskThresholdNanos;
  obs::recordTask(Slow);

  EXPECT_EQ(obs::flightTasksSeen(), 2u);
  std::string Text = obs::flightText();
  EXPECT_NE(Text.find("fast-task"), std::string::npos);
  EXPECT_NE(Text.find("slow-task"), std::string::npos);
  // The slow task appears in the slow log section as well.
  size_t First = Text.find("slow-task");
  EXPECT_NE(Text.find("slow-task", First + 1), std::string::npos)
      << "slow task should appear in both ring and slow log:\n"
      << Text;
  size_t FastFirst = Text.find("fast-task");
  EXPECT_EQ(Text.find("fast-task", FastFirst + 1), std::string::npos)
      << "fast task should appear only in the ring";

  obs::resetFlight();
  EXPECT_EQ(obs::flightTasksSeen(), 0u);
  obs::setFlightEnabled(Prev);
}

TEST(Flight, DisabledModeIsANoOp) {
  bool Prev = obs::flightEnabled();
  obs::setFlightEnabled(false);
  obs::resetFlight();
  obs::TaskRecord R;
  R.Name = "ghost";
  obs::recordTask(R);
  EXPECT_EQ(obs::flightTasksSeen(), 0u);
  EXPECT_EQ(obs::flightText().find("ghost"), std::string::npos);
  obs::setFlightEnabled(Prev);
}

TEST(Flight, ServiceRecordsCompletedTasks) {
  bool Prev = obs::flightEnabled();
  obs::setFlightEnabled(true);
  obs::resetFlight();
  svc::VectorizerService S;
  std::vector<svc::Ticket> Tickets = S.submitBatch(sliceBatch(2));
  for (svc::Ticket T : Tickets)
    (void)S.wait(T);
  EXPECT_EQ(obs::flightTasksSeen(), 2u);
  std::string Text = obs::flightText();
  EXPECT_NE(Text.find(tsvc::suite()[0].Name), std::string::npos);
  EXPECT_NE(Text.find("verify"), std::string::npos);
  obs::resetFlight();
  obs::setFlightEnabled(Prev);
}

} // namespace

