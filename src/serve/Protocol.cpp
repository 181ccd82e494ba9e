//===-- serve/Protocol.cpp ------------------------------------------------===//

#include "serve/Protocol.h"

#include "exec/Pipeline.h"
#include "oracle/Report.h"
#include "support/FaultInjector.h"

#include <unordered_set>

using namespace cerb;
using namespace cerb::serve;

namespace {

std::string quoted(std::string_view S) {
  return "\"" + oracle::jsonEscape(S) + "\"";
}

const char *opName(Op K) {
  switch (K) {
  case Op::Eval: return "eval";
  case Op::Batch: return "batch";
  case Op::Ping: return "ping";
  case Op::Stats: return "stats";
  case Op::Shutdown: return "shutdown";
  }
  return "?";
}

/// Applies the eval-shaped fields of \p Doc onto \p Q, leaving fields the
/// document does not mention untouched (so batch entries override their
/// envelope's shared defaults field by field). Source *presence* is the
/// caller's problem; a present-but-non-string source is rejected here.
ExpectedVoid applyEvalFields(const json::Value &Doc, EvalRequest &Q) {
  if (const json::Value *Src = Doc.get("source")) {
    if (Src->K != json::Value::Kind::String)
      return err("\"source\" must be a string");
    Q.Source = Src->asString();
  }
  if (const json::Value *Name = Doc.get("name"))
    Q.Name = Name->asString();

  if (const json::Value *Pols = Doc.get("policies")) {
    if (Pols->K != json::Value::Kind::Array)
      return err("\"policies\" must be an array of preset names");
    Q.Policies.clear();
    for (const json::Value &P : Pols->Arr) {
      auto Policy = mem::MemoryPolicy::named(P.asString());
      if (!Policy)
        return Policy.takeError();
      Q.Policies.push_back(std::move(*Policy));
    }
  }

  if (const json::Value *ModeV = Doc.get("mode")) {
    auto M = oracle::modeByName(ModeV->asString());
    if (!M)
      return err("unknown mode '" + ModeV->asString() +
                 "' (once|random|exhaustive)");
    Q.ExecMode = *M;
  }
  if (const json::Value *Seed = Doc.get("seed"))
    Q.Seed = Seed->asU64(1);
  if (const json::Value *NC = Doc.get("no_cache"))
    Q.NoCache = NC->asBool();
  if (const json::Value *CE = Doc.get("check_expect"))
    Q.CheckExpect = CE->asBool();
  if (const json::Value *FE = Doc.get("frontend")) {
    if (FE->K != json::Value::Kind::Object)
      return err("\"frontend\" must be an object");
    if (const json::Value *V = FE->get("core_simplify"))
      Q.Frontend.CoreSimplify = V->asBool();
  }

  if (const json::Value *L = Doc.get("limits")) {
    if (const json::Value *V = L->get("max_paths"))
      Q.Limits.MaxPaths = V->asU64(Q.Limits.MaxPaths);
    if (const json::Value *V = L->get("max_steps"))
      Q.Limits.MaxSteps = V->asU64();
    if (const json::Value *V = L->get("max_call_depth"))
      Q.Limits.MaxCallDepth = V->asU64();
    if (const json::Value *V = L->get("deadline_ms"))
      Q.Limits.DeadlineMs = V->asU64();
    if (const json::Value *V = L->get("fallback_samples"))
      Q.Limits.FallbackSamples = V->asU64(Q.Limits.FallbackSamples);
  }
  return ExpectedVoid();
}

} // namespace

Expected<Request> cerb::serve::parseRequest(std::string_view Frame) {
  // `protocol.decode` fault point: a request the daemon fails to decode for
  // reasons other than its bytes (allocation pressure, future schema skew).
  // Surfaces as a `bad_request` reject, which the retrying client treats as
  // terminal — decode failure is deterministic, retrying cannot help.
  if (fault::shouldFail("protocol.decode"))
    return err("malformed request: injected protocol.decode fault");
  std::string PErr;
  auto Doc = json::parse(Frame, &PErr);
  if (!Doc)
    return err("malformed request: " + PErr);
  if (Doc->K != json::Value::Kind::Object)
    return err("malformed request: not a JSON object");
  const json::Value *Schema = Doc->get("schema");
  if (!Schema || Schema->asString() != SchemaName)
    return err(std::string("unsupported schema (expected \"") + SchemaName +
               "\")");

  Request R;
  if (const json::Value *Id = Doc->get("id"))
    R.Id = Id->asString();

  const json::Value *OpV = Doc->get("op");
  std::string OpStr = OpV ? OpV->asString() : "eval";
  if (OpStr == "ping") {
    R.Kind = Op::Ping;
    return R;
  }
  if (OpStr == "stats") {
    R.Kind = Op::Stats;
    return R;
  }
  if (OpStr == "shutdown") {
    R.Kind = Op::Shutdown;
    return R;
  }
  if (OpStr == "batch") {
    R.Kind = Op::Batch;
    R.Batch.Id = R.Id;
    const json::Value *Reqs = Doc->get("requests");
    if (!Reqs || Reqs->K != json::Value::Kind::Array)
      return err("batch request needs a \"requests\" array");
    // Shape checks run over the parsed JSON *before* any EvalRequest is
    // materialized: a malformed batch is rejected without allocating
    // per-request sources, policy vectors, or job state.
    if (Reqs->Arr.empty())
      return err("batch carries zero requests");
    if (Reqs->Arr.size() > MaxBatchRequests)
      return err("batch carries " + std::to_string(Reqs->Arr.size()) +
                 " requests (cap " + std::to_string(MaxBatchRequests) + ")");
    const json::Value *SharedSrc = Doc->get("source");
    const bool HasSharedSource =
        SharedSrc && SharedSrc->K == json::Value::Kind::String;
    std::unordered_set<std::string> SeenIds;
    for (const json::Value &E : Reqs->Arr) {
      if (E.K != json::Value::Kind::Object)
        return err("batch \"requests\" entries must be objects");
      const json::Value *Id = E.get("id");
      if (!Id || Id->K != json::Value::Kind::String || Id->asString().empty())
        return err("every batch request needs a non-empty string \"id\"");
      if (!SeenIds.insert(Id->asString()).second)
        return err("duplicate batch request id '" + Id->asString() + "'");
      const json::Value *Src = E.get("source");
      if (!(Src && Src->K == json::Value::Kind::String) && !HasSharedSource)
        return err("batch request '" + Id->asString() +
                   "' has no \"source\" and the batch carries no shared one");
    }
    // Envelope fields are the shared defaults (same names as a plain eval
    // request); each entry overrides field by field.
    EvalRequest Shared;
    if (auto A = applyEvalFields(*Doc, Shared); !A)
      return A.error();
    R.Batch.Requests.reserve(Reqs->Arr.size());
    for (const json::Value &E : Reqs->Arr) {
      EvalRequest Q = Shared;
      Q.Id = E.get("id")->asString();
      if (auto A = applyEvalFields(E, Q); !A)
        return A.error();
      if (Q.Policies.empty())
        Q.Policies.push_back(mem::MemoryPolicy::defacto());
      R.Batch.Requests.push_back(std::move(Q));
    }
    return R;
  }
  if (OpStr != "eval")
    return err("unknown op '" + OpStr + "'");

  R.Kind = Op::Eval;
  EvalRequest &Q = R.Eval;
  Q.Id = R.Id;
  const json::Value *Src = Doc->get("source");
  if (!Src || Src->K != json::Value::Kind::String)
    return err("eval request needs a string \"source\"");
  if (auto A = applyEvalFields(*Doc, Q); !A)
    return A.error();
  if (Q.Policies.empty())
    Q.Policies.push_back(mem::MemoryPolicy::defacto());
  return R;
}

namespace {

/// The eval-shaped request fields, shared between the single-eval and the
/// per-entry batch serializers. \p WithSource=false when the batch hoisted
/// the source onto its envelope.
void appendEvalFields(std::string &J, const EvalRequest &Q, bool WithSource) {
  J += ", \"name\": " + quoted(Q.Name);
  if (WithSource)
    J += ", \"source\": " + quoted(Q.Source);
  J += ", \"policies\": [";
  for (size_t I = 0; I < Q.Policies.size(); ++I) {
    if (I)
      J += ", ";
    J += quoted(Q.Policies[I].Name);
  }
  J += "]";
  J += ", \"mode\": " + quoted(oracle::modeName(Q.ExecMode));
  J += ", \"seed\": " + std::to_string(Q.Seed);
  J += ", \"limits\": {\"max_paths\": " + std::to_string(Q.Limits.MaxPaths) +
       ", \"max_steps\": " + std::to_string(Q.Limits.MaxSteps) +
       ", \"max_call_depth\": " + std::to_string(Q.Limits.MaxCallDepth) +
       ", \"deadline_ms\": " + std::to_string(Q.Limits.DeadlineMs) +
       ", \"fallback_samples\": " + std::to_string(Q.Limits.FallbackSamples) +
       "}";
  if (Q.NoCache)
    J += ", \"no_cache\": true";
  if (Q.CheckExpect)
    J += ", \"check_expect\": true";
  if (Q.Frontend != exec::FrontendOptions())
    J += std::string(", \"frontend\": {\"core_simplify\": ") +
         (Q.Frontend.CoreSimplify ? "true" : "false") + "}";
}

} // namespace

std::string cerb::serve::serializeEvalRequest(const EvalRequest &Q) {
  std::string J;
  J += "{\"schema\": " + quoted(SchemaName) + ", \"op\": \"eval\"";
  if (!Q.Id.empty())
    J += ", \"id\": " + quoted(Q.Id);
  appendEvalFields(J, Q, /*WithSource=*/true);
  J += "}";
  return J;
}

std::string
cerb::serve::serializeBatchRequest(const std::string &Id,
                                   const std::vector<EvalRequest> &Requests) {
  bool SharedSource = !Requests.empty();
  for (const EvalRequest &Q : Requests)
    SharedSource = SharedSource && Q.Source == Requests.front().Source;
  std::string J;
  J += "{\"schema\": " + quoted(SchemaName) + ", \"op\": \"batch\"";
  if (!Id.empty())
    J += ", \"id\": " + quoted(Id);
  if (SharedSource)
    J += ", \"source\": " + quoted(Requests.front().Source);
  J += ", \"requests\": [";
  for (size_t I = 0; I < Requests.size(); ++I) {
    if (I)
      J += ", ";
    J += "{\"id\": " + quoted(Requests[I].Id);
    appendEvalFields(J, Requests[I], /*WithSource=*/!SharedSource);
    J += "}";
  }
  J += "]}";
  return J;
}

std::string cerb::serve::serializeSimpleRequest(Op Kind, const std::string &Id) {
  std::string J = "{\"schema\": " + quoted(SchemaName) + ", \"op\": " +
                  quoted(opName(Kind));
  if (!Id.empty())
    J += ", \"id\": " + quoted(Id);
  J += "}";
  return J;
}

std::string cerb::serve::okEvalResponse(const std::string &Id,
                                        std::string_view ReportBody) {
  // The report is embedded verbatim: a warm cache replays stored bytes, so
  // cold and warm responses for one query are identical by construction.
  std::string J;
  J.reserve(ReportBody.size() + 96);
  J += "{\"schema\": " + quoted(SchemaName) + ", \"id\": " + quoted(Id) +
       ", \"status\": \"ok\", \"report\": ";
  J += ReportBody;
  J += "}";
  return J;
}

std::string cerb::serve::okSimpleResponse(const std::string &Id,
                                          const char *Extra,
                                          const std::string &ExtraJson) {
  std::string J = "{\"schema\": " + quoted(SchemaName) + ", \"id\": " +
                  quoted(Id) + ", \"status\": \"ok\"";
  if (Extra)
    J += std::string(", \"") + Extra + "\": " + ExtraJson;
  J += "}";
  return J;
}

std::string cerb::serve::batchDoneResponse(const std::string &Id,
                                           uint64_t Requested,
                                           uint64_t Completed) {
  return "{\"schema\": " + quoted(SchemaName) + ", \"id\": " + quoted(Id) +
         ", \"status\": \"ok\", \"batch_done\": {\"requested\": " +
         std::to_string(Requested) +
         ", \"completed\": " + std::to_string(Completed) + "}}";
}

std::string cerb::serve::rejectResponse(const std::string &Id,
                                        const char *Status,
                                        std::string_view Message) {
  std::string J = "{\"schema\": " + quoted(SchemaName) + ", \"id\": " +
                  quoted(Id) + ", \"status\": " + quoted(Status);
  if (!Message.empty())
    J += ", \"error\": " + quoted(Message);
  J += "}";
  return J;
}

Expected<ParsedResponse> cerb::serve::parseResponse(std::string_view Frame) {
  // Fast path: the exact byte shape okEvalResponse emits — the steady
  // state of a batch reply stream, where a full JSON parse per frame is
  // the client's dominant cost. The shape is daemon-controlled, the match
  // is literal (any deviation, including an escape inside the id, falls
  // through to the full parser), and the extracted fields are byte-for-
  // byte what the slow path would produce.
  {
    static constexpr std::string_view Pre =
        "{\"schema\": \"cerb-serve/1\", \"id\": \"";
    static constexpr std::string_view Mid =
        "\", \"status\": \"ok\", \"report\": ";
    if (Frame.size() > Pre.size() + Mid.size() + 2 &&
        Frame.compare(0, Pre.size(), Pre) == 0 && Frame.back() == '}') {
      const size_t IdEnd = Frame.find('"', Pre.size());
      const size_t Esc = Frame.find('\\', Pre.size());
      if (IdEnd != std::string_view::npos && Esc >= IdEnd &&
          Frame.size() >= IdEnd + Mid.size() + 2 &&
          Frame.compare(IdEnd, Mid.size(), Mid) == 0 &&
          Frame[IdEnd + Mid.size()] == '{') {
        ParsedResponse R;
        R.Id = std::string(Frame.substr(Pre.size(), IdEnd - Pre.size()));
        R.Status = "ok";
        const size_t P = IdEnd + Mid.size();
        R.Report = std::string(Frame.substr(P, Frame.size() - 1 - P));
        return R;
      }
    }
  }
  std::string PErr;
  auto Doc = json::parse(Frame, &PErr);
  if (!Doc)
    return err("malformed response: " + PErr);
  const json::Value *Schema = Doc->get("schema");
  if (!Schema || Schema->asString() != SchemaName)
    return err("response carries no cerb-serve/1 schema");
  ParsedResponse R;
  if (const json::Value *Id = Doc->get("id"))
    R.Id = Id->asString();
  if (const json::Value *St = Doc->get("status"))
    R.Status = St->asString();
  if (const json::Value *E = Doc->get("error"))
    R.Error = E->asString();
  if (const json::Value *BD = Doc->get("batch_done")) {
    R.BatchDone = true;
    if (const json::Value *V = BD->get("requested"))
      R.BatchRequested = V->asU64();
    if (const json::Value *V = BD->get("completed"))
      R.BatchCompleted = V->asU64();
  }
  // Recover the report bytes verbatim (not re-serialized). The bare
  // `"report": ` key sequence cannot occur inside a JSON string value —
  // quotes there are escaped — so the first occurrence is the key, and the
  // value runs to the envelope's closing brace.
  if (Doc->get("report")) {
    static constexpr std::string_view Key = "\"report\": ";
    size_t At = Frame.find(Key);
    size_t End = Frame.rfind('}');
    if (At != std::string_view::npos && End != std::string_view::npos &&
        End > At + Key.size())
      R.Report = std::string(Frame.substr(At + Key.size(),
                                          End - (At + Key.size())));
  }
  return R;
}

std::string cerb::serve::cacheKeyMaterial(const EvalRequest &Q) {
  // Fixed-format fields first; the free-form name strictly last so no
  // crafted name can imitate another key's tail.
  std::string M = "cerb-serve-key/1";
  M += "|sem=" + oracle::jsonHex64(exec::semanticsFingerprint());
  M += "|rpt=1"; // bump when cerb-oracle-report/1 serialization changes
  M += "|fe=" + oracle::jsonHex64(Q.Frontend.fingerprint());
  M += Q.CheckExpect ? "|chk=1" : "|chk=0"; // verdicts are in the bytes
  M += "|src=" +
       oracle::jsonHex64(exec::CompileCache::hashSource(Q.Source)) + ":" +
       std::to_string(Q.Source.size());
  M += "|mode=" + std::string(oracle::modeName(Q.ExecMode));
  M += "|seed=" + std::to_string(Q.Seed);
  M += "|paths=" + std::to_string(Q.Limits.MaxPaths);
  M += "|steps=" + std::to_string(Q.Limits.MaxSteps);
  M += "|depth=" + std::to_string(Q.Limits.MaxCallDepth);
  M += "|deadline=" + std::to_string(Q.Limits.DeadlineMs);
  M += "|fallback=" + std::to_string(Q.Limits.FallbackSamples);
  M += "|pol=";
  for (size_t I = 0; I < Q.Policies.size(); ++I) {
    if (I)
      M += ",";
    M += Q.Policies[I].Name + ":" +
         oracle::jsonHex64(Q.Policies[I].fingerprint());
  }
  M += "|name=" + Q.Name;
  return M;
}

uint64_t cerb::serve::cacheKeyHash(std::string_view Material) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (char C : Material) {
    H ^= static_cast<unsigned char>(C);
    H *= 0x100000001b3ull;
  }
  return H;
}
