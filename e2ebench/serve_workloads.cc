// serve-observe and serve-recommend: open-loop binary-frame requests over
// loopback TCP to a one-worker net::NetServer in front of a serve::Server
// built from a paper-sized Cooking fit.
#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>

#include "core/difficulty.h"
#include "core/trainer.h"
#include "harness.h"
#include "net/frame.h"
#include "net/net_server.h"
#include "serve/serving_model.h"
#include "serve/snapshot.h"
#include "store/ingest_log.h"
#include "workloads.h"

namespace e2e {

namespace {

using upskill::Dataset;
using upskill::ItemId;
namespace serve = upskill::serve;
namespace store = upskill::store;
namespace net = upskill::net;
using Kind = serve::ServeRequest::Kind;

// Offered rates: about a quarter of one server core on a 4-vCPU Xeon
// (observe ~12 us, recommend ~55 us of server CPU per request). Fixed
// numbers, never rescaled per run, so a faster program shows as less CPU
// per request, not as a different load.
constexpr double kObserveRate = 20000.0;
constexpr double kRecommendRate = 4500.0;
// Recommend requests come from two pools of warmed sessions: users at the
// top level, for whom Recommend scans the whole ranking and returns no
// picks (~85 us over the socket), and everyone else, whose scan stops at
// the tenth pick (~23 us). Drawn uniformly over users, about a third of
// the requests are full scans, which puts the median latency in the gap
// between the two modes, where it follows how many short requests queue
// behind full scans and moved 25% between identical runs. A fixed share,
// three in four requests from the top pool, puts it inside the full-scan
// mode for every seed, and the other quarter still checks real picks.
constexpr uint64_t kTopLevelShareOutOf4 = 3;
// Observes spread over this many pre-warmed sessions, a working set far
// larger than L2.
constexpr uint32_t kObserveSessions = 100000;
// Each user is pinned to one connection, which fixes its request order.
constexpr int kConnections = 4;
constexpr int kSetupRepetitions = 3;
constexpr int64_t kDrainNs = 2'000'000'000;
constexpr int kRecommendTopK = 10;
constexpr double kRecommendStretch = 1.0;

std::string UserName(uint32_t user) {
  std::string name = "u";
  name += std::to_string(user);
  return name;
}

void Die(const std::string& what) {
  std::fprintf(stderr, "serve setup failed: %s\n", what.c_str());
  std::exit(1);
}

std::vector<pid_t> ThreadIds() {
  std::vector<pid_t> tids;
  if (DIR* dir = ::opendir("/proc/self/task")) {
    while (const dirent* entry = ::readdir(dir)) {
      if (entry->d_name[0] != '.') tids.push_back(std::atoi(entry->d_name));
    }
    ::closedir(dir);
  }
  return tids;
}

// CPU placement for the timed serve windows. The generator (the calling
// thread) gets the first CPU to itself. The front end's worker thread
// moves among the others every kRotationNs (see CpuRotation): left on one
// vCPU, a run's latency took that vCPU's share of the host, which held
// for tens of seconds, and serve-recommend's median moved between 58 and
// 82 us from run to run. At a quarter of a core most requests arrive at
// an idle server, so open-loop latency would also measure the wake-up of
// a halted vCPU more than the program: each server CPU runs an idle
// spinner (see IdleSpinners). The spinners' CPU time is subtracted from
// the server's; the context switches into and out of them are not (about
// 2 us per request on a 4-vCPU Xeon guest, so cpu_us_per_op reads that
// much above an unpinned run). With fewer than two usable CPUs nothing is
// pinned and no spinner runs.
constexpr int64_t kRotationNs = 250'000'000;

class CpuPlacement {
 public:
  explicit CpuPlacement(const std::vector<pid_t>& worker_tids) {
    const std::vector<int> cpus = AllowedCpus();
    if (cpus.size() < 2 || worker_tids.empty()) return;
    ::sched_getaffinity(0, sizeof(generator_mask_), &generator_mask_);
    const std::vector<int> server_cpus(cpus.begin() + 1, cpus.end());
    spinners_ = std::make_unique<IdleSpinners>(server_cpus);
    rotation_ = std::make_unique<CpuRotation>(worker_tids, server_cpus,
                                              kRotationNs);
    cpu_set_t generator_set;
    CPU_ZERO(&generator_set);
    CPU_SET(cpus.front(), &generator_set);
    ::sched_setaffinity(0, sizeof(generator_set), &generator_set);
  }
  ~CpuPlacement() {
    if (!spinners_) return;
    rotation_.reset();
    spinners_.reset();
    ::sched_setaffinity(0, sizeof(generator_mask_), &generator_mask_);
  }
  CpuPlacement(const CpuPlacement&) = delete;
  CpuPlacement& operator=(const CpuPlacement&) = delete;

  /// CPU time the spinners have used so far (0 when inactive).
  double SpinnerCpuSeconds() const {
    return spinners_ ? spinners_->CpuSeconds() : 0.0;
  }

 private:
  cpu_set_t generator_mask_{};
  std::unique_ptr<IdleSpinners> spinners_;
  std::unique_ptr<CpuRotation> rotation_;
};

// Everything a serve run needs, built by one timed set-up: the model, the
// server under test behind its TCP front end, the shadow server that
// checks it, and the client connections.
struct ServeFixture {
  uint32_t num_users = 0;
  // serve-recommend only: warmed users at the top level, and the others.
  std::vector<uint32_t> top_users;
  std::vector<uint32_t> other_users;
  int num_items = 0;
  std::unique_ptr<store::IngestLogWriter> log;
  std::unique_ptr<store::IngestLogWriter> shadow_log;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::Server> shadow;
  std::unique_ptr<net::NetServer> front_end;
  std::vector<int> fds;
  std::vector<pid_t> worker_tids;
  std::string log_path;
  std::string shadow_log_path;

  ServeFixture() = default;
  ServeFixture(const ServeFixture&) = delete;
  ServeFixture& operator=(const ServeFixture&) = delete;
  ~ServeFixture() {
    for (int fd : fds) ::close(fd);
    if (front_end) front_end->Stop();
    front_end.reset();
    server.reset();
    shadow.reset();
    log.reset();
    shadow_log.reset();
    std::error_code ignored;
    if (!log_path.empty()) std::filesystem::remove(log_path, ignored);
    if (!shadow_log_path.empty()) {
      std::filesystem::remove(shadow_log_path, ignored);
    }
  }
};

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) Die("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Die(std::string("connect: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::unique_ptr<ServeFixture> BuildFixture(bool observe, uint64_t seed,
                                           const std::string& dir) {
  auto fixture = std::make_unique<ServeFixture>();
  const Dataset dataset = GenerateDomain(/*cooking=*/true, seed);
  upskill::Result<upskill::TrainResult> trained =
      upskill::Trainer(FitConfig(/*cooking=*/true)).Train(dataset);
  if (!trained.ok()) Die(trained.status().ToString());
  const upskill::TrainResult& fit = trained.value();
  upskill::Result<std::vector<double>> difficulty =
      upskill::EstimateDifficultyByGeneration(
          dataset.items(), fit.model, upskill::DifficultyPrior::kEmpirical,
          fit.assignments);
  if (!difficulty.ok()) Die(difficulty.status().ToString());
  upskill::Result<serve::ModelSnapshot> snapshot = serve::MakeSnapshot(
      fit.model, dataset.items(), std::move(difficulty).value());
  if (!snapshot.ok()) Die(snapshot.status().ToString());
  upskill::Result<std::shared_ptr<const serve::ServingModel>> model =
      serve::ServingModel::FromSnapshot(std::move(snapshot).value(),
                                        static_cast<upskill::exec::Backend*>(
                                            nullptr));
  if (!model.ok()) Die(model.status().ToString());
  fixture->num_items = model.value()->num_items();
  fixture->server = std::make_unique<serve::Server>(model.value());
  fixture->shadow = std::make_unique<serve::Server>(model.value());

  // Warm-up, identical on both servers: every session the run touches
  // exists before the timed window, so the store does not grow inside it.
  for (serve::Server* server : {fixture->server.get(), fixture->shadow.get()}) {
    if (observe) {
      uint64_t state = seed;
      for (uint32_t u = 0; u < kObserveSessions; ++u) {
        const ItemId item = static_cast<ItemId>(
            SplitMix64(&state) % static_cast<uint64_t>(fixture->num_items));
        if (!server->Observe(UserName(u), item, 0, false).ok()) Die("warm-up");
      }
    } else {
      for (upskill::UserId u = 0; u < dataset.num_users(); ++u) {
        const std::string name = UserName(static_cast<uint32_t>(u));
        for (const upskill::Action& action : dataset.sequence(u)) {
          if (!server->Observe(name, action.item, 0, false).ok()) Die("warm-up");
        }
      }
    }
  }
  fixture->num_users = observe ? kObserveSessions
                               : static_cast<uint32_t>(dataset.num_users());
  if (!observe) {
    const int top = fixture->server->model()->num_levels();
    for (uint32_t u = 0; u < fixture->num_users; ++u) {
      const upskill::Result<serve::SessionLevel> level =
          fixture->server->CurrentLevel(UserName(u));
      if (!level.ok()) Die("warm-up level");
      (level.value().level == top ? fixture->top_users : fixture->other_users)
          .push_back(u);
    }
  }

  if (observe) {
    // The ingest-log tee. The log stays inside the benchmark's directory;
    // fsync is left to the OS (no fsync inside the window), so device
    // time is not measured, only the framing and the write() per batch.
    store::IngestLogOptions log_options;
    log_options.fsync_batches = std::numeric_limits<size_t>::max();
    fixture->log_path = dir + "/ingest.log";
    fixture->shadow_log_path = dir + "/ingest-shadow.log";
    std::error_code ignored;
    std::filesystem::remove(fixture->log_path, ignored);
    std::filesystem::remove(fixture->shadow_log_path, ignored);
    auto log = store::IngestLogWriter::Open(fixture->log_path, log_options);
    auto shadow_log =
        store::IngestLogWriter::Open(fixture->shadow_log_path, log_options);
    if (!log.ok() || !shadow_log.ok()) Die("ingest log open");
    fixture->log = std::move(log).value();
    fixture->shadow_log = std::move(shadow_log).value();
    store::IngestLogWriter* writer = fixture->log.get();
    fixture->server->SetObserveHook(
        [writer](const std::string& user, ItemId item, int64_t time) {
          (void)writer->Append({user, time, item});
        });
    store::IngestLogWriter* shadow_writer = fixture->shadow_log.get();
    fixture->shadow->SetObserveHook(
        [shadow_writer](const std::string& user, ItemId item, int64_t time) {
          ScopedSpan span(ActiveTracer(), "store.ingest_append");
          (void)shadow_writer->Append({user, time, item});
        });
  }

  net::NetServerConfig config;
  config.num_workers = 1;
  config.max_connections = 64;
  fixture->front_end = std::make_unique<net::NetServer>(
      fixture->server.get(), nullptr, config);
  const std::vector<pid_t> before = ThreadIds();
  const upskill::Status started = fixture->front_end->Start();
  if (!started.ok()) Die(started.ToString());
  for (pid_t tid : ThreadIds()) {
    if (std::find(before.begin(), before.end(), tid) == before.end()) {
      fixture->worker_tids.push_back(tid);
    }
  }
  for (int c = 0; c < kConnections; ++c) {
    fixture->fds.push_back(ConnectLoopback(fixture->front_end->port()));
  }
  return fixture;
}

// The recorded request stream of one open-loop run.
struct Stream {
  std::vector<Arrival> schedule;
  RecordedStream recorded;
  std::vector<RequestTiming> timing;
};

Stream MakeStream(const ServeFixture& fixture, Kind kind, uint64_t seed,
                  double rate, double seconds) {
  Stream stream;
  stream.schedule = MakeOpenLoopSchedule(seed, rate, seconds, fixture.num_users);
  stream.recorded.requests.reserve(stream.schedule.size());
  for (Arrival& arrival : stream.schedule) {
    if (kind == Kind::kRecommend) {
      // The high half of the draw picks the pool, the low half the user.
      const bool top = (arrival.draw >> 32) % 4 < kTopLevelShareOutOf4;
      const std::vector<uint32_t>& pool =
          (top && !fixture.top_users.empty()) || fixture.other_users.empty()
              ? fixture.top_users
              : fixture.other_users;
      arrival.user = pool[(arrival.draw & 0xffffffffu) % pool.size()];
    }
    serve::ServeRequest request;
    request.kind = kind;
    request.user = UserName(arrival.user);
    request.item = static_cast<ItemId>(arrival.draw %
                                       static_cast<uint64_t>(fixture.num_items));
    request.top_k = kRecommendTopK;
    request.stretch = kRecommendStretch;
    std::string frame;
    net::EncodeRequest(request, &frame);
    stream.recorded.requests.push_back(std::move(frame));
  }
  stream.recorded.responses.assign(stream.schedule.size(), std::string());
  stream.timing.assign(stream.schedule.size(), RequestTiming{});
  return stream;
}

struct LoopOutcome {
  double server_cpu_seconds = 0.0;
  HostWindow host;
  bool io_error = false;
};

// Drives `stream` open loop over the fixture's connections from the
// calling thread, which busy-polls so requests leave on time. Server CPU
// is the process's CPU minus this thread's.
LoopOutcome RunOpenLoop(ServeFixture& fixture, const CpuPlacement& placement,
                        Stream& stream) {
  struct Conn {
    int fd = -1;
    std::string tx;
    size_t tx_off = 0;
    std::string rx;
    std::deque<size_t> in_flight;
  };
  std::vector<Conn> conns(fixture.fds.size());
  const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  for (size_t c = 0; c < conns.size(); ++c) {
    conns[c].fd = fixture.fds[c];
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u32 = static_cast<uint32_t>(c);
    ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, conns[c].fd, &event);
  }
  LoopOutcome outcome;
  const size_t n = stream.schedule.size();
  const double probe_before = ReferenceProbeMicros();
  const HostTicks ticks_before = ReadHostTicks();
  const double process_cpu_start = ProcessCpuSeconds();
  const double thread_cpu_start = ThreadCpuSeconds();
  const double spinner_cpu_start = placement.SpinnerCpuSeconds();
  const int64_t origin = NowNs() + 1'000'000;
  const int64_t give_up =
      origin + (n == 0 ? 0 : stream.schedule.back().due_ns) + kDrainNs;
  size_t next = 0;
  size_t done = 0;
  char buffer[65536];
  epoll_event events[kConnections];
  while (done < n && !outcome.io_error) {
    int64_t now = NowNs();
    if (now > give_up) break;
    while (next < n && origin + stream.schedule[next].due_ns <= now) {
      Conn& conn = conns[stream.schedule[next].user % conns.size()];
      conn.tx += stream.recorded.requests[next];
      conn.in_flight.push_back(next);
      stream.timing[next].due_ns = origin + stream.schedule[next].due_ns;
      stream.timing[next].sent_ns = now;
      ++next;
    }
    for (Conn& conn : conns) {
      if (conn.tx_off == conn.tx.size()) continue;
      const ssize_t wrote =
          ::send(conn.fd, conn.tx.data() + conn.tx_off,
                 conn.tx.size() - conn.tx_off, MSG_DONTWAIT | MSG_NOSIGNAL);
      if (wrote > 0) {
        conn.tx_off += static_cast<size_t>(wrote);
        if (conn.tx_off == conn.tx.size()) {
          conn.tx.clear();
          conn.tx_off = 0;
        }
      } else if (wrote < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        outcome.io_error = true;
      }
    }
    const int ready = ::epoll_wait(epoll_fd, events, kConnections, 0);
    for (int e = 0; e < ready; ++e) {
      Conn& conn = conns[events[e].data.u32];
      for (;;) {
        const ssize_t got = ::recv(conn.fd, buffer, sizeof(buffer), MSG_DONTWAIT);
        if (got > 0) {
          conn.rx.append(buffer, static_cast<size_t>(got));
          continue;
        }
        if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          outcome.io_error = true;
        }
        break;
      }
      now = NowNs();
      size_t pos = 0;
      while (conn.rx.size() - pos >= net::kFrameHeaderBytes &&
             !conn.in_flight.empty()) {
        uint32_t payload = 0;
        std::memcpy(&payload, conn.rx.data() + pos + 2, sizeof(payload));
        const size_t frame = net::kFrameHeaderBytes + payload;
        if (conn.rx.size() - pos < frame) break;
        const size_t index = conn.in_flight.front();
        conn.in_flight.pop_front();
        stream.recorded.responses[index].assign(conn.rx, pos, frame);
        stream.timing[index].done_ns = now;
        ++done;
        pos += frame;
      }
      conn.rx.erase(0, pos);
    }
  }
  const double thread_cpu = ThreadCpuSeconds() - thread_cpu_start;
  const double spinner_cpu = placement.SpinnerCpuSeconds() - spinner_cpu_start;
  outcome.server_cpu_seconds =
      (ProcessCpuSeconds() - process_cpu_start) - thread_cpu - spinner_cpu;
  outcome.host.steal_ratio = StealRatio(ticks_before, ReadHostTicks());
  outcome.host.probe_us = 0.5 * (probe_before + ReferenceProbeMicros());
  ::close(epoll_fd);
  return outcome;
}

// Closed-loop round trips of single `difficulty` requests on one
// connection: the idle round trip of the cheapest request. The first
// `warmup` are not recorded.
std::vector<double> RoundTrips(ServeFixture& fixture, int count, int warmup) {
  std::vector<double> micros;
  const int fd = fixture.fds[0];
  std::string frame;
  std::string rx;
  char buffer[4096];
  for (int i = 0; i < warmup + count; ++i) {
    serve::ServeRequest request;
    request.kind = Kind::kDifficulty;
    request.item = static_cast<ItemId>(i % fixture.num_items);
    frame.clear();
    net::EncodeRequest(request, &frame);
    const int64_t start = NowNs();
    if (::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(frame.size())) {
      Die("round-trip send");
    }
    rx.clear();
    for (;;) {
      const ssize_t got = ::recv(fd, buffer, sizeof(buffer), MSG_DONTWAIT);
      if (got > 0) rx.append(buffer, static_cast<size_t>(got));
      if (got == 0 || (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
        Die("round-trip recv");
      }
      if (rx.size() >= net::kFrameHeaderBytes) {
        uint32_t payload = 0;
        std::memcpy(&payload, rx.data() + 2, sizeof(payload));
        if (rx.size() >= net::kFrameHeaderBytes + payload) break;
      }
    }
    if (i >= warmup) {
      micros.push_back(static_cast<double>(NowNs() - start) * 1e-3);
    }
  }
  return micros;
}

std::vector<double> LatenciesMicros(const Stream& stream,
                                    const std::vector<uint8_t>& failed) {
  std::vector<double> micros(stream.timing.size());
  for (size_t i = 0; i < micros.size(); ++i) {
    // A failed request misses every latency limit.
    micros[i] = failed[i] ? std::numeric_limits<double>::infinity()
                          : LatencyMicros(stream.timing[i]);
  }
  return micros;
}

uint64_t CountFailed(const std::vector<uint8_t>& failed) {
  uint64_t count = 0;
  for (uint8_t f : failed) count += f;
  return count;
}

}  // namespace

Report RunServeWorkload(const RunOptions& options) {
  Report report;
  const bool observe = options.workload == "serve-observe";
  const Kind kind = observe ? Kind::kObserve : Kind::kRecommend;
  const double rate = observe ? kObserveRate : kRecommendRate;

  std::vector<double> setup_seconds;
  std::unique_ptr<ServeFixture> fixture;
  for (int r = 0; r < (options.trace ? 1 : kSetupRepetitions); ++r) {
    fixture.reset();
    const int64_t start = NowNs();
    fixture = BuildFixture(observe, options.seed, options.out_dir);
    setup_seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }
  const CpuPlacement placement(fixture->worker_tids);
  // Connections accepted and code paths warm before anything is timed.
  (void)RoundTrips(*fixture, 0, 500);

  // Traced run only: the floor, the cheapest request (difficulty, a single
  // array read) at the same offered rate, so the server CPU left is the
  // front end's. Half is taken just before the main window and half just
  // after it, so a host whose speed drifts during the run biases neither.
  struct FloorPart {
    double cpu_seconds = 0.0;
    size_t requests = 0;
    uint64_t failed = 0;
  };
  auto run_floor = [&](uint64_t floor_seed) {
    Stream floor = MakeStream(*fixture, Kind::kDifficulty, floor_seed, rate,
                              options.seconds / 8);
    const LoopOutcome outcome = RunOpenLoop(*fixture, placement, floor);
    if (outcome.io_error) report.Fail("socket error during the floor window");
    const ShadowReport checked =
        ReplayAgainstShadow(floor.recorded, *fixture->shadow, nullptr);
    if (checked.mismatches > 0) {
      report.Fail(std::to_string(checked.mismatches) +
                  " difficulty responses differ from the shadow server's");
    }
    return FloorPart{outcome.server_cpu_seconds, floor.schedule.size(),
                     CountFailed(checked.failed)};
  };
  const FloorPart floor_before =
      options.trace ? run_floor(options.seed + 1) : FloorPart{};

  const double window_seconds = options.trace ? options.seconds / 2 : options.seconds;
  Stream stream = MakeStream(*fixture, kind, options.seed, rate, window_seconds);
  const LoopOutcome loop = RunOpenLoop(*fixture, placement, stream);
  if (loop.io_error) report.Fail("socket error during the timed window");
  const uint64_t attempted = stream.schedule.size();
  const double cpu_us_per_op =
      loop.server_cpu_seconds * 1e6 / static_cast<double>(std::max<uint64_t>(1, attempted));
  report.notes.push_back("offered " + std::to_string(static_cast<int>(rate)) +
                         " req/s for " + std::to_string(window_seconds) + " s: " +
                         std::to_string(attempted) + " requests over " +
                         std::to_string(fixture->fds.size()) + " connections");

  // Shadow check of every response; in the traced run the same replay
  // records the per-layer spans.
  Tracer tracer;
  const ShadowReport shadow = ReplayAgainstShadow(
      stream.recorded, *fixture->shadow, options.trace ? &tracer : nullptr);
  uint64_t failed = CountFailed(shadow.failed);
  if (shadow.mismatches > 0) {
    report.Fail(std::to_string(shadow.mismatches) +
                " responses differ from the shadow server's");
  }
  if (observe) {
    // Every successful observe must have reached the ingest log.
    uint64_t logged = 0;
    if (!fixture->log->Flush().ok()) report.Fail("ingest log flush");
    const auto scan = store::ReplayIngestLog(
        fixture->log_path,
        [&logged](const store::IngestRecord&) {
          ++logged;
          return upskill::Status::OK();
        });
    uint64_t observed = 0;
    for (size_t i = 0; i < stream.recorded.responses.size(); ++i) {
      const std::string& response = stream.recorded.responses[i];
      observed += !response.empty() && static_cast<uint8_t>(response[1]) == 0;
    }
    if (!scan.ok() || logged != observed) {
      report.Fail("ingest log holds " + std::to_string(logged) +
                  " records for " + std::to_string(observed) + " observes");
    }
  }
  const std::vector<double> latency = LatenciesMicros(stream, shadow.failed);

  if (!options.trace) {
    report.attempted = attempted;
    report.failed = failed;
    const std::optional<double> p50 = Percentile(latency, 0.5);
    report.Add("setup_s", Median(setup_seconds), "s");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    report.metrics.push_back({"op_us.p50", p50.value_or(0.0), "us", !p50.has_value()});
    report.Add("cpu_us_per_op", cpu_us_per_op, "us");
    report.Add("host.steal_ratio", loop.host.steal_ratio, "ratio");
    report.Add("host.probe_us", loop.host.probe_us, "us");
    return report;
  }

  // --- traced run: diagnostics of the window above, then the floor.
  std::vector<double> lateness(stream.timing.size());
  for (size_t i = 0; i < lateness.size(); ++i) {
    lateness[i] = LatenessMicros(stream.timing[i]);
  }
  const std::optional<double> p99 = Percentile(latency, 0.99);
  const std::optional<double> late_p99 = Percentile(lateness, 0.99);
  const double sessions = static_cast<double>(fixture->server->num_sessions());

  const FloorPart floor_after = run_floor(options.seed + 2);
  const size_t floor_requests = floor_before.requests + floor_after.requests;
  const double floor_cpu_us =
      (floor_before.cpu_seconds + floor_after.cpu_seconds) * 1e6 /
      static_cast<double>(std::max<size_t>(1, floor_requests));
  failed += floor_before.failed + floor_after.failed;
  const std::optional<double> rtt = Percentile(RoundTrips(*fixture, 2000, 100), 0.5);
  report.attempted = attempted + floor_requests;
  report.failed = failed;

  const std::map<std::string, SpanTotals> spans = SummarizeSpans(tracer.spans());
  uint64_t traced_requests = 0;
  std::vector<double> traced_ns;
  std::vector<double> untraced_ns;
  for (size_t i = 0; i < shadow.request_ns.size(); ++i) {
    (shadow.traced[i] ? traced_ns : untraced_ns).push_back(shadow.request_ns[i]);
    traced_requests += shadow.traced[i];
  }
  const double per_request = 1.0 / static_cast<double>(std::max<uint64_t>(1, traced_requests));
  auto self_ns = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.self_ns;
  };
  auto per_call_ns = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() || it->second.count == 0
               ? 0.0
               : it->second.self_ns / static_cast<double>(it->second.count);
  };
  const double layers_us =
      (self_ns("net.decode") + self_ns("serve.session") +
       self_ns("store.ingest_append") + self_ns("serve.level") +
       self_ns("serve.rank") + self_ns("net.encode")) *
      per_request * 1e-3;
  const double rank_us = per_call_ns("serve.rank") * 1e-3;

  report.Add("net.floor_cpu_us", floor_cpu_us, "us");
  report.metrics.push_back({"net.rtt_us.p50", rtt.value_or(0.0), "us", !rtt.has_value()});
  report.Add("net.decode_ns", self_ns("net.decode") * per_request, "ns");
  report.Add("net.encode_ns", self_ns("net.encode") * per_request, "ns");
  report.Add("serve.session_us", per_call_ns("serve.session") * 1e-3, "us");
  report.Add("serve.rank_us", rank_us, "us");
  report.Add("serve.level_us", per_call_ns("serve.level") * 1e-3, "us");
  report.Add("store.ingest_append_ns", per_call_ns("store.ingest_append"), "ns");
  report.Add("serve.sessions", sessions, "count");
  report.metrics.push_back({"net.op_us.p99", p99.value_or(0.0), "us", !p99.has_value()});
  report.metrics.push_back(
      {"net.gen_late_us.p99", late_p99.value_or(0.0), "us", !late_p99.has_value()});
  report.Add("trace.coverage", (floor_cpu_us + layers_us) / cpu_us_per_op, "ratio");
  report.Add("trace.overhead_ratio", Median(traced_ns) / Median(untraced_ns), "ratio");
  const double dominant_share = (observe ? floor_cpu_us : rank_us) / cpu_us_per_op;
  report.Add("trace.dominant_share", dominant_share, "ratio");
  report.notes.push_back(std::string(observe ? "net floor" : "serve.rank") +
                         " share of cpu_us_per_op (" + std::to_string(cpu_us_per_op) +
                         " us): " + std::to_string(dominant_share) +
                         (dominant_share >= 0.5 ? " (meets 0.5)" : " (BELOW 0.5)"));
  report.Add("host.steal_ratio", loop.host.steal_ratio, "ratio");
  report.Add("host.probe_us", loop.host.probe_us, "us");
  std::ofstream(options.out_dir + "/trace-" + options.workload + ".json")
      << ChromeTraceJson(tracer.spans(), 2000);
  return report;
}

}  // namespace e2e
