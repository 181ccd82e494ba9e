//===-- fuzz/Campaign.cpp -------------------------------------------------===//

#include "fuzz/Campaign.h"

#include "oracle/Report.h"
#include "support/Format.h"
#include "support/Json.h"
#include "support/ThreadPool.h"
#include "trace/Trace.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <map>
#include <thread>

using namespace cerb;
using namespace cerb::fuzz;
using csmith::DiffOptions;
using csmith::DiffResult;
using csmith::DiffStatus;

namespace {

std::vector<mem::MemoryPolicy>
resolvedPolicies(const CampaignOptions &Opts) {
  if (!Opts.Policies.empty())
    return Opts.Policies;
  return {mem::MemoryPolicy::defacto()};
}

/// Splits a "status|stage|ub|hash" signature into its named parts.
void splitSignature(const std::string &Key, Bucket &B) {
  std::vector<std::string> Parts;
  size_t Pos = 0;
  while (Parts.size() < 4) {
    size_t Bar = Key.find('|', Pos);
    if (Bar == std::string::npos) {
      Parts.push_back(Key.substr(Pos));
      break;
    }
    Parts.push_back(Key.substr(Pos, Bar - Pos));
    Pos = Bar + 1;
  }
  Parts.resize(4);
  B.Status = Parts[0];
  B.Stage = Parts[1];
  B.UB = Parts[2];
}

/// Deterministic corpus file name for a bucket: lowercased status/stage/UB
/// plus a hash prefix, sanitized to [a-z0-9-_].
std::string corpusFileName(const Bucket &B) {
  std::string Hash;
  size_t Bar = B.Key.rfind('|');
  if (Bar != std::string::npos)
    Hash = B.Key.substr(Bar + 1, 12);
  std::string Name = B.Status + "-" + B.Stage + "-" +
                     (B.UB == "-" ? "noub" : B.UB) + "-" + Hash;
  for (char &C : Name) {
    C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
    if (!std::isalnum(static_cast<unsigned char>(C)) && C != '-' && C != '_')
      C = '_';
  }
  return Name + ".c";
}

/// Runs one seed under every policy, reducing divergences; writes the
/// per-policy entries into Slots[0..Policies.size()).
void runSeed(uint64_t Seed, const CampaignOptions &Opts,
             const std::vector<mem::MemoryPolicy> &Policies,
             CampaignEntry *Slots) {
  trace::Span SeedSpan("fuzz.seed", "fuzz");
  SeedSpan.arg("seed", Seed);
  csmith::GenOptions G = Opts.Gen;
  G.Seed = Seed;
  csmith::GeneratedProgram P = csmith::generateProgramWithChunks(G);

  csmith::DifferentialRunner Runner(P.Source);
  for (size_t PI = 0; PI < Policies.size(); ++PI) {
    DiffOptions DO;
    DO.Policy = Policies[PI];
    DO.StepBudget = Opts.StepBudget;
    DO.DeadlineMs = Opts.TestDeadlineMs;
    DiffResult D = Runner.run(DO);

    CampaignEntry &E = Slots[PI];
    E.Seed = Seed;
    E.Policy = Policies[PI].Name;
    E.Status = D.Status;
    E.Signature = csmith::diffSignature(D);
    E.Detail = D.Detail;
    E.SourceBytes = P.Source.size();

    bool Divergence =
        D.Status == DiffStatus::Mismatch || D.Status == DiffStatus::OursFail;
    if (!Divergence || !Opts.Reduce)
      continue;

    auto StillFails = [&](const std::string &Candidate) {
      DiffResult C = csmith::differentialTest(Candidate, DO);
      return csmith::diffSignature(C) == E.Signature;
    };
    ReduceResult RR = reduce(P.Source, P.Chunks, StillFails, Opts.Reduction);
    E.Reduced = RR.Reduced;
    E.ReducedBytes = RR.ReducedBytes;
    E.ReduceTests = RR.TestsRun;
    E.OneMinimal = RR.OneMinimal;
  }
}

} // namespace

CampaignResult
cerb::fuzz::runCampaign(const CampaignOptions &Opts,
                        const std::vector<CampaignEntry> *Previous) {
  trace::Span CampaignSpan("fuzz.campaign", "fuzz");
  trace::Registry::Snapshot Before = trace::Registry::instance().snapshot();
  auto T0 = std::chrono::steady_clock::now();
  CampaignResult R;
  std::vector<mem::MemoryPolicy> Policies = resolvedPolicies(Opts);
  if (Opts.LastSeed < Opts.FirstSeed)
    return R;
  size_t SeedCount = static_cast<size_t>(Opts.LastSeed - Opts.FirstSeed + 1);
  size_t PerSeed = Policies.size();

  // Index previous entries; a seed is adoptable only when every requested
  // policy is covered (a partial seed re-runs wholesale so the shared
  // elaboration/oracle run is not repeated anyway).
  std::map<std::pair<uint64_t, std::string>, const CampaignEntry *> Prev;
  if (Previous)
    for (const CampaignEntry &E : *Previous)
      Prev[{E.Seed, E.Policy}] = &E;

  R.Entries.assign(SeedCount * PerSeed, CampaignEntry());

  std::vector<uint64_t> Fresh; ///< seeds that actually need running
  for (size_t I = 0; I < SeedCount; ++I) {
    uint64_t Seed = Opts.FirstSeed + I;
    bool Adopt = Previous != nullptr;
    for (size_t PI = 0; Adopt && PI < PerSeed; ++PI)
      Adopt = Prev.count({Seed, Policies[PI].Name}) != 0;
    if (Adopt) {
      for (size_t PI = 0; PI < PerSeed; ++PI) {
        R.Entries[I * PerSeed + PI] = *Prev[{Seed, Policies[PI].Name}];
        R.Entries[I * PerSeed + PI].Resumed = true;
      }
    } else {
      Fresh.push_back(Seed);
    }
  }

  // Even one job runs on the pool: evaluations need its fixed stack.
  unsigned Jobs = Opts.Jobs ? Opts.Jobs
                            : std::max(1u, std::thread::hardware_concurrency());
  {
    ThreadPool Pool(Jobs);
    for (uint64_t Seed : Fresh)
      Pool.submit([&, Seed] {
        runSeed(Seed, Opts, Policies,
                &R.Entries[(Seed - Opts.FirstSeed) * PerSeed]);
      });
    Pool.wait();
  }

  // Aggregate stats. The fuzz.* counters are fed from the entries here —
  // not from the run sites — so an adopted (resumed) entry counts exactly
  // like a fresh one and the report's counters object stays byte-identical
  // between a resumed campaign and a fresh run of the same range.
  static trace::Counter CntEntries("fuzz.entries");
  static trace::Counter CntAgree("fuzz.agree");
  static trace::Counter CntMismatch("fuzz.mismatch");
  static trace::Counter CntTimeout("fuzz.timeout");
  static trace::Counter CntFail("fuzz.fail");
  static trace::Counter CntOracleFail("fuzz.oracle_unavailable");
  static trace::Counter CntReduced("fuzz.reduced");
  static trace::Counter CntReduceTests("fuzz.reduce_tests");
  for (const CampaignEntry &E : R.Entries) {
    ++R.Stats.Total;
    CntEntries.add();
    switch (E.Status) {
    case DiffStatus::Agree: ++R.Stats.Agree; CntAgree.add(); break;
    case DiffStatus::Mismatch: ++R.Stats.Mismatch; CntMismatch.add(); break;
    case DiffStatus::OursTimeout: ++R.Stats.Timeout; CntTimeout.add(); break;
    case DiffStatus::OursFail: ++R.Stats.Fail; CntFail.add(); break;
    case DiffStatus::OracleFail:
      ++R.Stats.OracleUnavailable;
      CntOracleFail.add();
      break;
    }
    if (!E.Reduced.empty()) {
      ++R.Stats.Reduced;
      CntReduced.add();
      R.Stats.ReduceTests += E.ReduceTests;
      CntReduceTests.add(E.ReduceTests);
    }
    if (E.Resumed)
      ++R.Stats.ResumedEntries;
  }
  R.Stats.Counters = trace::Registry::delta(
      Before, trace::Registry::instance().snapshot(), "fuzz.");

  // Triage: bucket reduced divergences by signature. Entries iterate in
  // (seed asc, policy) order, so the first hit is the smallest seed — the
  // bucket representative.
  std::map<std::string, Bucket> Buckets;
  for (const CampaignEntry &E : R.Entries) {
    if (E.Reduced.empty())
      continue;
    Bucket &B = Buckets[E.Signature];
    if (B.Key.empty()) {
      B.Key = E.Signature;
      splitSignature(B.Key, B);
      B.RepresentativeSeed = E.Seed;
      B.RepresentativePolicy = E.Policy;
      B.OriginalBytes = E.SourceBytes;
      B.ReducedBytes = E.ReducedBytes;
      B.Reproducer = E.Reduced;
    }
    if (B.Seeds.empty() || B.Seeds.back() != E.Seed)
      B.Seeds.push_back(E.Seed);
  }
  for (auto &[Key, B] : Buckets)
    R.Buckets.push_back(std::move(B));

  // Persist the corpus (deterministic names; smallest-seed reproducer).
  if (!Opts.CorpusDir.empty() && !R.Buckets.empty()) {
    std::error_code EC;
    std::filesystem::create_directories(Opts.CorpusDir, EC);
    for (Bucket &B : R.Buckets) {
      B.CorpusFile = corpusFileName(B);
      std::string Header =
          fmt("/* cerb fuzz reproducer: bucket {0}\n   seed {1}, policy {2}, "
              "{3} -> {4} bytes */\n",
              B.Key, B.RepresentativeSeed, B.RepresentativePolicy,
              B.OriginalBytes, B.ReducedBytes);
      oracle::writeTextFile(Opts.CorpusDir + "/" + B.CorpusFile,
                            Header + B.Reproducer);
    }
  }

  R.Stats.WallMs = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
  return R;
}

//===----------------------------------------------------------------------===//
// Report ("cerb-fuzz-report/1", oracle::Report conventions)
//===----------------------------------------------------------------------===//

namespace {

std::string str(uint64_t V) { return std::to_string(V); }

std::string jquoted(const std::string &S) {
  return "\"" + oracle::jsonEscape(S) + "\"";
}

} // namespace

std::string cerb::fuzz::toJson(const CampaignResult &R,
                               const CampaignOptions &Opts,
                               const CampaignReportOptions &RO) {
  std::vector<mem::MemoryPolicy> Policies = resolvedPolicies(Opts);
  std::string J;
  J += "{\n";
  J += "  \"schema\": \"cerb-fuzz-report/1\",\n";

  J += "  \"options\": {\n";
  J += "    \"first_seed\": " + str(Opts.FirstSeed) + ",\n";
  J += "    \"last_seed\": " + str(Opts.LastSeed) + ",\n";
  J += "    \"size\": " + str(Opts.Gen.Size) + ",\n";
  J += "    \"num_globals\": " + str(Opts.Gen.NumGlobals) + ",\n";
  J += "    \"num_functions\": " + str(Opts.Gen.NumFunctions) + ",\n";
  J += "    \"max_depth\": " + str(Opts.Gen.MaxDepth) + ",\n";
  J += "    \"policies\": [";
  for (size_t I = 0; I < Policies.size(); ++I)
    J += (I ? ", " : "") + jquoted(Policies[I].Name);
  J += "],\n";
  J += "    \"step_budget\": " + str(Opts.StepBudget) + ",\n";
  J += "    \"test_deadline_ms\": " + str(Opts.TestDeadlineMs) + ",\n";
  J += "    \"reduce\": " + std::string(Opts.Reduce ? "true" : "false") +
       ",\n";
  J += "    \"reduce_max_tests\": " + str(Opts.Reduction.MaxTests) + ",\n";
  J += "    \"reduce_deadline_ms\": " + str(Opts.Reduction.DeadlineMs) + "\n";
  J += "  },\n";

  const CampaignStats &S = R.Stats;
  J += "  \"summary\": {\n";
  J += "    \"total\": " + str(S.Total) + ",\n";
  J += "    \"agree\": " + str(S.Agree) + ",\n";
  J += "    \"mismatch\": " + str(S.Mismatch) + ",\n";
  J += "    \"timeout\": " + str(S.Timeout) + ",\n";
  J += "    \"fail\": " + str(S.Fail) + ",\n";
  J += "    \"oracle_unavailable\": " + str(S.OracleUnavailable) + ",\n";
  J += "    \"reduced\": " + str(S.Reduced) + ",\n";
  J += "    \"reduce_tests\": " + str(S.ReduceTests) + ",\n";
  J += "    \"counters\": {";
  {
    bool First = true;
    for (const auto &[Name, N] : S.Counters) {
      if (!First)
        J += ", ";
      J += jquoted(Name) + ": " + str(N);
      First = false;
    }
  }
  J += "},\n";
  J += "    \"buckets\": " + str(R.Buckets.size());
  if (RO.IncludeTimings) {
    J += ",\n    \"resumed_entries\": " + str(S.ResumedEntries) + ",\n";
    J += "    \"wall_ms\": " + oracle::jsonMs(S.WallMs) + ",\n";
    double Secs = S.WallMs / 1000.0;
    uint64_t Programs = Policies.empty() ? 0 : S.Total / Policies.size();
    J += "    \"programs_per_sec\": " +
         oracle::jsonMs(Secs > 0 ? Programs / Secs : 0);
  }
  J += "\n  },\n";

  J += "  \"buckets\": [\n";
  for (size_t I = 0; I < R.Buckets.size(); ++I) {
    const Bucket &B = R.Buckets[I];
    J += "    {\n";
    J += "      \"key\": " + jquoted(B.Key) + ",\n";
    J += "      \"status\": " + jquoted(B.Status) + ",\n";
    J += "      \"stage\": " + jquoted(B.Stage) + ",\n";
    J += "      \"ub\": " + (B.UB == "-" ? "null" : jquoted(B.UB)) + ",\n";
    J += "      \"count\": " + str(B.Seeds.size()) + ",\n";
    J += "      \"seeds\": [";
    for (size_t K = 0; K < B.Seeds.size(); ++K)
      J += (K ? ", " : "") + str(B.Seeds[K]);
    J += "],\n";
    J += "      \"representative_seed\": " + str(B.RepresentativeSeed) + ",\n";
    J += "      \"representative_policy\": " + jquoted(B.RepresentativePolicy) +
         ",\n";
    J += "      \"original_bytes\": " + str(B.OriginalBytes) + ",\n";
    J += "      \"reduced_bytes\": " + str(B.ReducedBytes) + ",\n";
    J += "      \"reduction_ratio\": " +
         oracle::jsonMs(B.OriginalBytes
                            ? static_cast<double>(B.ReducedBytes) /
                                  static_cast<double>(B.OriginalBytes)
                            : 0) +
         ",\n";
    if (!B.CorpusFile.empty())
      J += "      \"corpus_file\": " + jquoted(B.CorpusFile) + ",\n";
    J += "      \"reproducer\": " + jquoted(B.Reproducer) + "\n";
    J += "    }";
    if (I + 1 < R.Buckets.size())
      J += ",";
    J += "\n";
  }
  J += "  ],\n";

  J += "  \"entries\": [\n";
  for (size_t I = 0; I < R.Entries.size(); ++I) {
    const CampaignEntry &E = R.Entries[I];
    J += "    {\"seed\": " + str(E.Seed) + ", \"policy\": " + jquoted(E.Policy) +
         ", \"status\": " + jquoted(std::string(diffStatusName(E.Status))) +
         ", \"signature\": " + jquoted(E.Signature) +
         ", \"bytes\": " + str(E.SourceBytes);
    if (!E.Detail.empty())
      J += ", \"detail\": " + jquoted(E.Detail);
    if (!E.Reduced.empty()) {
      J += ", \"reduced_bytes\": " + str(E.ReducedBytes) +
           ", \"reduce_tests\": " + str(E.ReduceTests) + ", \"one_minimal\": " +
           (E.OneMinimal ? "true" : "false") +
           ", \"reduced\": " + jquoted(E.Reduced);
    }
    J += "}";
    if (I + 1 < R.Entries.size())
      J += ",";
    J += "\n";
  }
  J += "  ]\n";
  J += "}\n";
  return J;
}

bool cerb::fuzz::loadCampaignEntries(const std::string &JsonText,
                                     std::vector<CampaignEntry> &Out,
                                     std::string *Err) {
  std::string ParseErr;
  std::optional<json::Value> Doc = json::parse(JsonText, &ParseErr);
  if (!Doc) {
    if (Err)
      *Err = ParseErr;
    return false;
  }
  const json::Value *Schema = Doc->get("schema");
  if (!Schema || Schema->asString() != "cerb-fuzz-report/1") {
    if (Err)
      *Err = "not a cerb-fuzz-report/1 document";
    return false;
  }
  const json::Value *Entries = Doc->get("entries");
  if (!Entries || Entries->K != json::Value::Kind::Array) {
    if (Err)
      *Err = "report has no entries array";
    return false;
  }
  for (const json::Value &V : Entries->Arr) {
    CampaignEntry E;
    if (const json::Value *F = V.get("seed"))
      E.Seed = F->asU64();
    if (const json::Value *F = V.get("policy"))
      E.Policy = F->asString();
    if (const json::Value *F = V.get("status")) {
      auto S = csmith::diffStatusByName(F->asString());
      if (!S) {
        if (Err)
          *Err = "unknown status '" + F->asString() + "' in report";
        return false;
      }
      E.Status = *S;
    }
    if (const json::Value *F = V.get("signature"))
      E.Signature = F->asString();
    if (const json::Value *F = V.get("detail"))
      E.Detail = F->asString();
    if (const json::Value *F = V.get("bytes"))
      E.SourceBytes = F->asU64();
    if (const json::Value *F = V.get("reduced_bytes"))
      E.ReducedBytes = F->asU64();
    if (const json::Value *F = V.get("reduce_tests"))
      E.ReduceTests = F->asU64();
    if (const json::Value *F = V.get("one_minimal"))
      E.OneMinimal = F->asBool();
    if (const json::Value *F = V.get("reduced"))
      E.Reduced = F->asString();
    E.Resumed = true;
    Out.push_back(std::move(E));
  }
  return true;
}
