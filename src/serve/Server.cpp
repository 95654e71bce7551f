//===- Server.cpp - Line-protocol front end of leapfrog-serve -------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "obs/Metrics.h"
#include "serve/Json.h"

#include <cstdio>
#include <cstring>
#include <istream>
#include <ostream>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace leapfrog;
using namespace leapfrog::serve;

Server::Server(std::unique_ptr<CheckService> S) : Svc(std::move(S)) {}
Server::~Server() = default;

std::unique_ptr<Server> Server::create(const ServiceConfig &Config,
                                       std::string *Error) {
  std::unique_ptr<CheckService> Svc = CheckService::create(Config, Error);
  if (!Svc)
    return nullptr;
  return std::unique_ptr<Server>(new Server(std::move(Svc)));
}

CheckService &Server::service() { return *Svc; }

bool Server::shutdownRequested() const { return Shutdown.load(); }

namespace {

Json errorResponse(const std::string &Msg) {
  Json R = Json::object();
  R.set("ok", Json::boolean(false));
  R.set("error", Json::str(Msg));
  return R;
}

const char *verdictName(core::Verdict V) {
  switch (V) {
  case core::Verdict::Equivalent:
    return "equivalent";
  case core::Verdict::NotEquivalent:
    return "not_equivalent";
  case core::Verdict::ResourceLimit:
    return "resource_limit";
  case core::Verdict::BadRequest:
    return "bad_request";
  }
  return "unknown";
}

Json statsJson(const core::CheckStats &S) {
  Json J = Json::object();
  J.set("iterations", Json::unsignedInt(S.Iterations));
  J.set("extends", Json::unsignedInt(S.Extends));
  J.set("skips", Json::unsignedInt(S.Skips));
  J.set("smt_queries", Json::unsignedInt(S.SmtQueries));
  J.set("reach_pairs", Json::unsignedInt(S.ReachPairs));
  J.set("templates_left", Json::unsignedInt(S.TemplatesLeft));
  J.set("templates_right", Json::unsignedInt(S.TemplatesRight));
  J.set("final_conjuncts", Json::unsignedInt(S.FinalConjuncts));
  J.set("peak_frontier", Json::unsignedInt(S.PeakFrontier));
  J.set("formula_nodes", Json::unsignedInt(S.FormulaNodes));
  J.set("wall_micros", Json::unsignedInt(S.WallMicros));
  J.set("solver_micros", Json::unsignedInt(S.SolverMicros));
  return J;
}

/// Decodes the per-request option subset the protocol exposes. Unknown
/// fields are ignored (forward compatibility); engine-level fields
/// (backend) are server-side flags, not request fields, so their
/// presence here is a client error worth rejecting loudly. `jobs` is
/// rejected the same way: a check runs on one thread, and a client that
/// asks for workers must hear that rather than be silently ignored.
bool decodeOptions(const Json &J, core::CheckOptions &O, std::string &Err) {
  if (J.isNull())
    return true;
  if (!J.isObject()) {
    Err = "\"options\" must be an object";
    return false;
  }
  if (J.has("backend") || J.has("jobs") || J.has("solver")) {
    Err = "\"options\" may not set engine-level fields (backend, jobs); "
          "those are fixed when the server starts";
    return false;
  }
  O.UseLeaps = J.getBool("use_leaps", O.UseLeaps);
  O.UseReachability = J.getBool("use_reachability", O.UseReachability);
  O.UseIncremental = J.getBool("use_incremental", O.UseIncremental);
  O.RecordTrace = J.getBool("record_trace", O.RecordTrace);
  O.MaxIterations = size_t(J.getUnsigned("max_iterations", O.MaxIterations));
  O.MaxWallMicros = J.getUnsigned("max_wall_micros", O.MaxWallMicros);
  O.Limits.MaxLearnts =
      size_t(J.getUnsigned("max_learnts", O.Limits.MaxLearnts));
  O.Limits.MaxArenaBytes =
      size_t(J.getUnsigned("max_arena_bytes", O.Limits.MaxArenaBytes));
  O.GoalBatch = size_t(J.getUnsigned("goal_batch", O.GoalBatch));
  if (O.GoalBatch < 1)
    O.GoalBatch = 1;
  return true;
}

} // namespace

std::string Server::handleLine(const std::string &Line) {
  // Blank lines are keep-alives: answer nothing-shaped but valid.
  std::string Trimmed = Line;
  while (!Trimmed.empty() && (Trimmed.back() == '\r' || Trimmed.back() == '\n'))
    Trimmed.pop_back();
  if (Trimmed.empty()) {
    Json R = Json::object();
    R.set("ok", Json::boolean(true));
    return R.serialize();
  }

  Json Req;
  std::string ParseErr;
  if (!Json::parse(Trimmed, Req, &ParseErr))
    return errorResponse("bad JSON: " + ParseErr).serialize();
  if (!Req.isObject())
    return errorResponse("request must be a JSON object").serialize();

  const std::string Op = Req.getString("op");
  Json R = Json::object();
  // Echo the client's correlation id verbatim on every op that has one.
  if (Req.has("id"))
    R.set("id", Req.get("id"));

  if (Op == "ping") {
    R.set("ok", Json::boolean(true));
    R.set("pong", Json::boolean(true));
    return R.serialize();
  }

  if (Op == "shutdown") {
    Shutdown.store(true);
    // Nudge the accept loop out of accept(2) by closing the listener.
    int Fd = ListenFd.exchange(-1);
    if (Fd >= 0)
      ::shutdown(Fd, SHUT_RDWR);
    R.set("ok", Json::boolean(true));
    R.set("bye", Json::boolean(true));
    return R.serialize();
  }

  if (Op == "stats") {
    CheckService::Stats S = Svc->stats();
    R.set("ok", Json::boolean(true));
    R.set("submitted", Json::unsignedInt(S.Submitted));
    R.set("computed", Json::unsignedInt(S.Computed));
    R.set("coalesced", Json::unsignedInt(S.Coalesced));
    R.set("rejected_queue_full", Json::unsignedInt(S.RejectedQueueFull));
    Json Cache = Json::object();
    Cache.set("hits", Json::unsignedInt(S.Cache.Hits));
    Cache.set("misses", Json::unsignedInt(S.Cache.Misses));
    Cache.set("collisions", Json::unsignedInt(S.Cache.Collisions));
    Cache.set("entries", Json::unsignedInt(S.Cache.Entries));
    R.set("cache", Cache);
    Json Cfg = Json::object();
    Cfg.set("lanes", Json::unsignedInt(Svc->config().Lanes));
    Cfg.set("backend", Json::str(Svc->config().Engine.Backend));
    Cfg.set("max_queue", Json::unsignedInt(Svc->config().MaxQueue));
    Cfg.set("max_iterations_cap",
            Json::unsignedInt(Svc->config().MaxIterationsCap));
    Cfg.set("max_wall_micros_cap",
            Json::unsignedInt(Svc->config().MaxWallMicrosCap));
    Cfg.set("certify", Json::boolean(Svc->config().Engine.Certify));
    Cfg.set("cert_store", Json::str(Svc->config().CertStoreDir));
    R.set("config", Cfg);
    return R.serialize();
  }

  if (Op == "metrics") {
    // The full process-wide registry, in both machine forms: the JSON
    // snapshot (obs::MetricsSnapshot::toJson is itself valid JSON, so it
    // is re-parsed and embedded structurally — a client sees real nested
    // objects, not a quoted blob) and the Prometheus text exposition for
    // scrapers that want to relay it verbatim.
    obs::MetricsSnapshot Snap = obs::metrics().snapshot();
    Json Registry;
    std::string SnapErr;
    if (!Json::parse(Snap.toJson(), Registry, &SnapErr))
      return errorResponse("metrics snapshot failed to serialize: " +
                           SnapErr)
          .serialize();
    R.set("ok", Json::boolean(true));
    R.set("metrics", Registry);
    R.set("prometheus", Json::str(Snap.toPrometheus()));
    return R.serialize();
  }

  if (Op == "cert") {
    const std::string Hex = Req.getString("key");
    if (Hex.empty())
      return errorResponse("cert requires \"key\" (32 hex digits)")
          .serialize();
    std::string Text = Svc->certificateByHex(Hex);
    if (Text.empty())
      return errorResponse("no certificate cached under key " + Hex)
          .serialize();
    R.set("ok", Json::boolean(true));
    R.set("key", Json::str(Hex));
    R.set("certificate", Json::str(Text));
    return R.serialize();
  }

  if (Op != "check")
    return errorResponse("unknown op '" + Op +
                         "' (expected check|ping|stats|metrics|cert|shutdown)")
        .serialize();

  if (!Req.get("left").isString() || !Req.get("right").isString())
    return errorResponse(
               "check requires string fields \"left\" and \"right\" "
               "holding .lfp parser text")
        .serialize();

  core::CheckOptions Opts;
  std::string OptErr;
  if (!decodeOptions(Req.get("options"), Opts, OptErr))
    return errorResponse(OptErr).serialize();

  core::CheckRequest CheckReq;
  std::vector<std::string> Errors;
  if (!core::checkRequestFromSurface(Req.get("left").asString(),
                                     Req.get("right").asString(), Opts,
                                     CheckReq, Errors)) {
    std::string Msg = "parser text rejected";
    Json ErrList = Json::array();
    for (const std::string &E : Errors)
      ErrList.push(Json::str(E));
    Json Bad = errorResponse(Msg);
    Bad.set("diagnostics", ErrList);
    return Bad.serialize();
  }

  CheckService::Outcome O = Svc->submit(CheckReq);
  if (O.rejected()) {
    Json Rej = errorResponse(O.Error);
    if (Req.has("id"))
      Rej.set("id", Req.get("id"));
    Rej.set("rejected", Json::boolean(true));
    return Rej.serialize();
  }

  R.set("ok", Json::boolean(true));
  R.set("verdict", Json::str(verdictName(O.Result.V)));
  R.set("cache", Json::str(O.CacheHit ? "hit"
                           : O.Shared ? "shared"
                                      : "miss"));
  R.set("fingerprint", Json::str(O.FP.hex()));
  R.set("stats", statsJson(O.Result.Stats));
  R.set("micros", Json::unsignedInt(O.TotalMicros));
  if (!O.Result.FailureReason.empty())
    R.set("failure_reason", Json::str(O.Result.FailureReason));
  if (O.Result.V == core::Verdict::Equivalent)
    R.set("certificate_key", Json::str(O.FP.hex()));
  return R.serialize();
}

int Server::runStdio(std::istream &In, std::ostream &Out) {
  std::string Line;
  while (!Shutdown.load() && std::getline(In, Line)) {
    Out << handleLine(Line) << "\n";
    Out.flush();
  }
  return 0;
}

namespace {

/// One connection: length-unbounded line reader over a socket fd.
void serveConnection(Server *S, int Fd) {
  std::string Buf;
  char Chunk[4096];
  for (;;) {
    size_t Nl;
    while ((Nl = Buf.find('\n')) == std::string::npos) {
      ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
      if (N <= 0) {
        ::close(Fd);
        return;
      }
      Buf.append(Chunk, size_t(N));
    }
    std::string Line = Buf.substr(0, Nl);
    Buf.erase(0, Nl + 1);
    std::string Resp = S->handleLine(Line) + "\n";
    size_t Off = 0;
    while (Off < Resp.size()) {
      ssize_t N = ::write(Fd, Resp.data() + Off, Resp.size() - Off);
      if (N <= 0) {
        ::close(Fd);
        return;
      }
      Off += size_t(N);
    }
    if (S->shutdownRequested()) {
      ::close(Fd);
      return;
    }
  }
}

} // namespace

int Server::runSocket(const std::string &Path) {
  if (Path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    std::fprintf(stderr, "leapfrog-serve: socket path too long: %s\n",
                 Path.c_str());
    return 1;
  }
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    std::perror("leapfrog-serve: socket");
    return 1;
  }
  ::unlink(Path.c_str());
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    std::perror("leapfrog-serve: bind");
    ::close(Fd);
    return 1;
  }
  if (::listen(Fd, 64) < 0) {
    std::perror("leapfrog-serve: listen");
    ::close(Fd);
    return 1;
  }
  ListenFd.store(Fd);

  std::vector<std::thread> Conns;
  while (!Shutdown.load()) {
    int Client = ::accept(Fd, nullptr, nullptr);
    if (Client < 0) {
      if (Shutdown.load())
        break;
      continue;
    }
    Conns.emplace_back(serveConnection, this, Client);
  }
  for (std::thread &T : Conns)
    T.join();
  // The shutdown op only shuts the listener down (to break accept(2)
  // loose); the fd itself is closed here, once, whatever the exit path.
  ListenFd.store(-1);
  ::close(Fd);
  ::unlink(Path.c_str());
  return 0;
}
