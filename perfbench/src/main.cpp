// perfbench: the end-to-end benchmark of the FilterForward edge box.
//
//   ffbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--out <dir>] [--commit <id>]
//
// One run measures one workload. It
//   1. generates its inputs from --seed (pre-rendered frames; never timed),
//   2. sets the box up kSetups times (extractor + MC construction, attach,
//      int8 calibration, warm-up) and reports the median as setup_s; the
//      last rig is the one measured,
//   3. drives core::EdgeFleet -> net::UplinkClient -> net::DatacenterIngest
//      (plus the edge archive's demand-fetch path) for --seconds through
//      public APIs only, timing each layer at its seams from outside,
//   4. drains, checks the outputs, and prints one JSON object as the last
//      line of stdout: end-to-end metrics with --trace 0, per-layer metrics
//      (from a run that also records spans) with --trace 1.
//
// Every workload and why it exists is listed in Workloads() below.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/edge_fleet.hpp"
#include "dnn/feature_extractor.hpp"
#include "helpers.hpp"
#include "net/ingest.hpp"
#include "net/link.hpp"
#include "net/uplink.hpp"
#include "net/wire.hpp"
#include "nn/kernels.hpp"
#include "trace.hpp"
#include "util/clock.hpp"
#include "util/thread_pool.hpp"
#include "video/dataset.hpp"
#include "video/overlap_source.hpp"
#include "xcam/topology.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ff;
namespace pb = perfbench;

constexpr int kSetups = 5;
constexpr std::uint64_t kFleetId = 1;
constexpr std::int64_t kArchiveGop = 8;

std::int64_t NowNs() { return util::SystemClock::Instance().NowNs(); }

// The box's threads (the fleet's pipeline stages, the kernel pool, the
// synchronous Step() loop and the uplink pump) run this much nicer than the
// harness's stand-ins for other machines: the datacenter and the open-loop
// generator. Both sides share this machine; without it, the datacenter's
// timestamps and the generator's pacing would queue behind the box they are
// timing. Inside the box every thread keeps the same priority, as deployed.
constexpr int kComputeNice = 10;

// Runs `fn` on a fresh thread at kComputeNice. Threads that `fn` creates
// (pipeline stages, pool workers) inherit the priority.
template <typename Fn>
void RunAtComputePriority(Fn&& fn) {
  std::exception_ptr error;
  std::thread t([&] {
    // Raising one's own niceness needs no privilege; on failure the run
    // simply keeps the default priority.
    setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()), kComputeNice);
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
  });
  t.join();
  if (error) std::rethrow_exception(error);
}

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

clockid_t ThreadCpuClock(pthread_t thread) {
  clockid_t clock{};
  FF_CHECK_MSG(pthread_getcpuclockid(thread, &clock) == 0,
               "no CPU clock for a harness thread");
  return clock;
}

// Resident set of this process now, in bytes; 0 where /proc is unavailable.
std::uint64_t ResidentBytes() {
  std::ifstream in("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  if (!(in >> size >> resident)) return 0;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Schedule {
  kPipelined,  // closed loop: sources pulled by the fleet's prefetch stage
  kStep,       // closed loop: synchronous Step() on the main thread
  kOpenLoop,   // Push() from a generator paced at the cameras' frame rate
};

struct Workload {
  std::string name;
  int cameras = 1;
  std::int64_t width = 256;
  int tenants = 1;        // per camera
  bool quantize = false;  // int8 trunk and single-frame MCs
  Schedule schedule = Schedule::kPipelined;
  std::int64_t max_batch = 8;
  // Decision SLO for on_time_frac, fixed per workload.
  double slo_ms = 1000;
  // Completions per measurement slice (a multiple of the batch width, so
  // slice edges fall on batch completions).
  std::int64_t slice_frames = 64;
  // Edge archive: durable pack on disk (else in RAM) and the demand-fetch
  // cadence the datacenter drives against it. Clips are short: the uplink
  // pump serves them at the box's priority, and a serve of several ms is
  // time-sliced against the compute threads, so its latency would follow
  // how much CPU the host leaves the box rather than the program.
  bool durable_archive = false;
  double fetch_period_ms = 250;
  std::int64_t fetch_frames = 1;
  // WAN: datagram loss each way on the edge<->datacenter link.
  double link_drop = 0.0;
  // Cameras 0 and 1 overlap (one xcam pair) and tenants fire on ground
  // truth instead of running an MC network.
  bool xcam_pair = false;
  std::int64_t camera_fps = 15;  // stream rate; paces the open loop
  double upload_bitrate_bps = 300'000;
};

// Why each workload exists (BENCHMARK.json lists the ones runs are gated on):
//  * wall_float: many streams, few tenants, float trunk, pipelined schedule,
//    lossless link. The shared base DNN and cross-stream batching carry the
//    load; int8 and WAN loss are bypassed.
//  * tenants_int8: few streams, many tenants, int8 trunk and MCs (windowed
//    MCs stay float), synchronous Step(). The MC fan-out dominates and the
//    trunk is light: the same dnn/core layers used the other way round. Not
//    gated: on a shared 4-vCPU VM its delivery latency swings with host
//    steal by more than any bound allows; run it for layer attribution.
//  * wan_archive: open loop at the cameras' 15 fps with load well under
//    capacity, so latency measures the program and not a backlog; durable
//    pack archive, lossy WAN, demand-fetches and one xcam overlap pair carry
//    it, the trunk is light. Loss is low enough that the median fetch needs
//    no retransmit timeout.
// The closed-loop workloads also keep an in-RAM archive and fetch from it:
// every end-to-end metric is reported on every workload.
std::vector<Workload> Workloads() {
  std::vector<Workload> w(3);
  w[0].name = "wall_float";
  w[0].cameras = 8;
  w[0].width = 256;
  w[0].tenants = 2;
  w[0].schedule = Schedule::kPipelined;
  w[0].slo_ms = 1500;
  w[0].slice_frames = 64;

  w[1].name = "tenants_int8";
  w[1].cameras = 2;
  w[1].width = 256;
  w[1].tenants = 24;
  w[1].quantize = true;
  w[1].schedule = Schedule::kStep;
  w[1].slo_ms = 1000;
  w[1].slice_frames = 32;

  w[2].name = "wan_archive";
  w[2].cameras = 4;
  w[2].width = 128;
  w[2].tenants = 1;
  w[2].schedule = Schedule::kOpenLoop;
  w[2].max_batch = 4;
  w[2].slo_ms = 250;
  w[2].slice_frames = 60;
  w[2].durable_archive = true;
  w[2].fetch_frames = 2;
  w[2].fetch_period_ms = 25;
  w[2].link_drop = 0.005;
  w[2].xcam_pair = true;
  w[2].upload_bitrate_bps = 120'000;
  return w;
}

// ---------------------------------------------------------------------------
// Inputs (generated from --seed before any timing)
// ---------------------------------------------------------------------------

struct Camera {
  std::vector<video::Frame> frames;  // one cycle, replayed in order
  std::vector<std::uint8_t> labels;  // ground truth (scripted scenes only)
};

constexpr std::int64_t kClosedLoopCycle = 64;
constexpr std::int64_t kOverlapEvents = 8;

std::vector<Camera> MakeInputs(const Workload& w, std::uint64_t seed) {
  std::vector<Camera> cams(static_cast<std::size_t>(w.cameras));
  if (w.xcam_pair) {
    // Scripted scenes: event timing is fixed by the script, so every seed
    // offers the same share of event frames; the seed moves the objects.
    // Cameras 0 and 1 view one script (the overlap pair); the others each
    // view their own.
    std::vector<std::shared_ptr<const video::OverlapScript>> scripts;
    for (int c = 0; c < w.cameras; ++c) {
      if (c == 1) {
        scripts.push_back(scripts[0]);
        continue;
      }
      video::OverlapScriptSpec spec;
      spec.width = w.width;
      spec.height = w.width * 9 / 16;
      spec.fps = w.camera_fps;
      spec.n_events = kOverlapEvents;
      spec.seed = seed * 7919 + static_cast<std::uint64_t>(c);
      spec.object_scale = 4.0;
      scripts.push_back(std::make_shared<const video::OverlapScript>(spec));
    }
    for (int c = 0; c < w.cameras; ++c) {
      const auto& script = scripts[static_cast<std::size_t>(c)];
      video::OverlapView view;
      view.shift_x = c == 1 ? 3.0 : 0.0;  // parallax inside the pair
      view.brightness = 2 * c;
      view.noise_amp = 2;
      view.noise_seed = seed * 31 + static_cast<std::uint64_t>(c);
      video::OverlapSource src(script, view);
      const std::int64_t n = script->n_frames() + script->spec().gap_frames;
      Camera& cam = cams[static_cast<std::size_t>(c)];
      for (std::int64_t i = 0; i < n; ++i) {
        cam.frames.push_back(src.RenderFrame(i));
        cam.labels.push_back(script->Active(i) ? 1 : 0);
      }
    }
    return cams;
  }
  for (int c = 0; c < w.cameras; ++c) {
    auto spec = video::JacksonSpec(w.width, kClosedLoopCycle,
                                   seed * 1009 + static_cast<std::uint64_t>(c));
    spec.object_scale = 3.0;
    spec.mean_event_len = 12;
    const video::SyntheticDataset ds(spec);
    Camera& cam = cams[static_cast<std::size_t>(c)];
    for (std::int64_t i = 0; i < ds.n_frames(); ++i) {
      cam.frames.push_back(ds.RenderFrame(i));
    }
  }
  return cams;
}

// ---------------------------------------------------------------------------
// Measurement state shared by the seams
// ---------------------------------------------------------------------------

// Calls to one seam inside the timed window and the time spent in them.
struct SeamTimes {
  std::int64_t calls = 0;
  double total_ms = 0;
};

struct Meter {
  explicit Meter(std::int64_t slice_frames) : slice(slice_frames) {}

  const std::int64_t slice;
  pb::Tracer tracer;
  bool trace_run = false;

  std::mutex mu;
  std::condition_variable cv;
  bool window = false;
  std::int64_t t0_ns = 0, t1_ns = 0;
  std::int64_t completed_total = 0;   // frames fully decided, whole run
  std::int64_t completed_window = 0;  // ... inside the window
  // CPU clocks of the harness's own threads: the datacenter stand-in and
  // the main thread (the open-loop generator). Set before the window opens.
  std::vector<clockid_t> harness_clocks;
  // CPU seconds the box has used: process CPU minus the harness threads.
  double BoxCpuSeconds() const {
    double s = ClockSeconds(CLOCK_PROCESS_CPUTIME_ID);
    for (const clockid_t c : harness_clocks) s -= ClockSeconds(c);
    return s;
  }
  // Slice edges: (time, box CPU seconds, traced?) every `slice`
  // completions inside the window, starting at the window's first edge.
  struct Edge {
    std::int64_t ns = 0;
    double cpu_s = 0;
    bool traced = false;
    std::optional<pb::CpuTimes> host;  // for the per-slice steal diagnostic
  };
  std::vector<Edge> edges;
  // Frames created inside the window: offered, decided in time, latencies.
  std::int64_t offered = 0;
  std::int64_t on_time = 0;
  std::vector<double> decision_ms;
  std::vector<double> delivery_ms;
  // The same samples grouped by the second of the window they were sent in.
  std::vector<std::vector<double>> delivery_ms_by_second;
  std::vector<double> fetch_ms;
  std::vector<double> gen_lag_ms;
  std::vector<double> fetch_serve_ms;  // per demand-fetch served
  std::vector<double> pump_ms;         // per ingest Pump() that had work
  std::int64_t refused = 0;
  SeamTimes next, enqueue;

  bool InWindow(std::int64_t created_ns) const {
    return window && created_ns >= t0_ns && (t1_ns == 0 || created_ns < t1_ns);
  }

  // Called (under `mu`) for each fully decided frame.
  void OnComplete(std::int64_t now_ns, std::int64_t created_ns, double slo_ms) {
    ++completed_total;
    if (InWindow(created_ns)) {
      const double ms = static_cast<double>(now_ns - created_ns) / 1e6;
      decision_ms.push_back(ms);
      if (ms <= slo_ms) ++on_time;
    }
    if (window && t1_ns == 0) {
      ++completed_window;
      if (completed_window % slice == 0) {
        edges.push_back(
            {now_ns, BoxCpuSeconds(), tracer.on(), pb::ReadProcStat()});
        // Traced runs alternate recording per slice, so traced and
        // untraced slices of one rig can be compared.
        if (trace_run) tracer.set_on(!tracer.on());
      }
    }
    cv.notify_all();
  }
};

// Per-stream bookkeeping: creation time of every frame the stream took, the
// decisions each has received, and the enqueue time of every upload.
struct StreamLog {
  std::mutex mu;
  std::int64_t tenants = 0;
  std::vector<std::int64_t> created_ns;
  std::vector<std::int32_t> decisions;
  std::vector<std::int64_t> upload_ns;
  std::int64_t over_decided = 0;  // decisions beyond one per tenant
  std::int64_t delivered_seen = 0;
};

// ---------------------------------------------------------------------------
// Seam wrappers
// ---------------------------------------------------------------------------

// Closed-loop camera: replays its pre-rendered cycle until stopped. A frame
// is created when Next() returns it.
class LoopSource : public video::FrameSource {
 public:
  LoopSource(const Camera& cam, std::int64_t stream, std::int64_t fps,
             StreamLog& log, Meter& meter, const std::atomic<bool>& stop)
      : cam_(cam), stream_(stream), fps_(fps), log_(log), meter_(meter),
        stop_(stop) {}

  std::optional<video::Frame> Next() override {
    if (stop_.load()) return std::nullopt;
    const std::int64_t t0 = NowNs();
    const std::size_t n = cam_.frames.size();
    video::Frame f = cam_.frames[static_cast<std::size_t>(next_) % n];
    f.index = next_++;
    const std::int64_t t1 = NowNs();
    f.capture_ts_ns = t1;
    {
      std::lock_guard<std::mutex> lock(log_.mu);
      log_.created_ns.push_back(t1);
      log_.decisions.push_back(0);
    }
    {
      std::lock_guard<std::mutex> lock(meter_.mu);
      if (meter_.InWindow(t1)) {
        ++meter_.offered;
        ++meter_.next.calls;
        meter_.next.total_ms += static_cast<double>(t1 - t0) / 1e6;
      }
    }
    meter_.tracer.Record("video.next", t0, t1, static_cast<std::uint64_t>(f.index),
                         0, pb::FrameSpanId(stream_, f.index));
    return f;
  }
  void Reset() override { next_ = 0; }
  std::int64_t width() const override { return cam_.frames[0].width(); }
  std::int64_t height() const override { return cam_.frames[0].height(); }
  std::int64_t fps() const override { return fps_; }

 private:
  const Camera& cam_;
  std::int64_t stream_;
  std::int64_t fps_;
  StreamLog& log_;
  Meter& meter_;
  const std::atomic<bool>& stop_;
  std::int64_t next_ = 0;
};

// Records (in traced slices) every datagram the uplink offers the WAN.
class TracedLink : public net::Link {
 public:
  TracedLink(net::Link& inner, Meter& meter) : inner_(inner), meter_(meter) {}
  void Send(std::string datagram) override {
    const std::int64_t t0 = NowNs();
    const std::size_t bytes = datagram.size();
    inner_.Send(std::move(datagram));
    meter_.tracer.Record("net.link.send", t0, NowNs(), bytes);
  }
  std::optional<std::string> Poll() override { return inner_.Poll(); }

 private:
  net::Link& inner_;
  Meter& meter_;
};

// Ground-truth tenant for the scripted xcam workload: it fires exactly on
// the frames its camera's script marks active, so events (and with them
// uploads and cross-camera groups) are fixed by the inputs. Labels arrive
// through a feed in the order frames were pushed to its stream.
class LabelFeed {
 public:
  void Push(bool label) {
    std::lock_guard<std::mutex> lock(mu_);
    labels_.push_back(label);
  }
  bool Pop() {
    std::lock_guard<std::mutex> lock(mu_);
    FF_CHECK_MSG(!labels_.empty(), "label feed ran dry");
    const bool l = labels_.front();
    labels_.pop_front();
    return l;
  }

 private:
  std::mutex mu_;
  std::deque<bool> labels_;
};

class LabelTenant : public core::Microclassifier {
 public:
  LabelTenant(const dnn::FeatureExtractor& fx, std::int64_t h, std::int64_t w,
              std::string name, LabelFeed& feed)
      : core::Microclassifier({.name = std::move(name), .tap = kTap}, fx, h,
                              w),
        feed_(feed) {}
  nn::Sequential& net() override { return net_; }
  static constexpr const char* kTap = "conv3_2/sep";

 protected:
  float InferView(const nn::TensorView&) override {
    return feed_.Pop() ? 1.0f : 0.0f;
  }

 private:
  LabelFeed& feed_;
  nn::Sequential net_{"label"};
};

// ---------------------------------------------------------------------------
// One rig: the box under test plus the harness threads that feed and drain it
// ---------------------------------------------------------------------------

struct Snapshot {
  std::int64_t ns = 0;
  double cpu_s = 0;
  double trunk_s = 0, mc_s = 0, smooth_s = 0, upload_s = 0;
  std::int64_t frames = 0, batches = 0;
  std::vector<std::int64_t> stream_frames;
  std::optional<pb::CpuTimes> proc;
};

struct Checks {
  std::int64_t failed = 0;
  std::vector<std::string> problems;
  void Expect(bool ok, std::int64_t failed_ops, const std::string& what) {
    if (ok) return;
    failed += std::max<std::int64_t>(1, failed_ops);
    problems.push_back(what);
  }
};

class Rig {
 public:
  Rig(const Workload& w, const std::vector<Camera>& cams, Meter& meter,
      const std::filesystem::path& scratch)
      : w_(w), cams_(cams), meter_(meter) {
    // --- WAN: edge end -> [loss] -> counting seam -> uplink. ---
    auto [edge_end, server_end] = net::LocalLink::MakePair();
    edge_end_ = std::move(edge_end);
    server_end_ = std::move(server_end);
    net::Link* up = edge_end_.get();
    net::Link* down = server_end_.get();
    if (w.link_drop > 0) {
      net::FaultConfig fc;
      fc.drop = w.link_drop;
      fc.seed = 0xfa17;
      up_faults_ = std::make_unique<net::FaultyLink>(*edge_end_, fc);
      fc.seed = 0xfa18;
      down_faults_ = std::make_unique<net::FaultyLink>(*server_end_, fc);
      up = up_faults_.get();
      down = down_faults_.get();
    }
    edge_link_ = std::make_unique<TracedLink>(*up, meter_);

    // --- The box. ---
    dnn::FeatureExtractorConfig xcfg;
    xcfg.model.include_classifier = false;
    xcfg.quantize = w.quantize;
    fx_ = std::make_unique<dnn::FeatureExtractor>(xcfg);

    core::EdgeFleetConfig cfg;
    cfg.max_batch = w.max_batch;
    cfg.upload_bitrate_bps = w.upload_bitrate_bps;
    cfg.queue_capacity = 32;
    cfg.archive_gop = kArchiveGop;
    cfg.edge_store_capacity = 4096;
    if (w.durable_archive) {
      const std::filesystem::path archive_dir = scratch / "archive";
      std::filesystem::remove_all(archive_dir);
      cfg.archive_dir = archive_dir.string();
      cfg.edge_store_capacity = 0;
      cfg.archive_budget_bytes = 256ull << 20;
      cfg.archive_segment_frames = 64;
    }
    fleet_ = std::make_unique<core::EdgeFleet>(*fx_, cfg);

    net::UplinkConfig ucfg;
    ucfg.fleet = kFleetId;
    ucfg.queue_capacity = 64;
    uplink_ = std::make_unique<net::UplinkClient>(*edge_link_, ucfg);
    ingest_ = std::make_unique<net::DatacenterIngest>();
    ingest_->AddFleet(kFleetId, *down);

    for (int c = 0; c < w.cameras; ++c) {
      logs_.push_back(std::make_unique<StreamLog>());
      const auto& cam = cams[static_cast<std::size_t>(c)];
      core::StreamHandle s = -1;
      if (w.schedule == Schedule::kOpenLoop) {
        s = fleet_->AddStream(core::StreamConfig{
            .frame_width = cam.frames[0].width(),
            .frame_height = cam.frames[0].height(),
            .fps = w.camera_fps,
            .priority = 0});
      } else {
        sources_.push_back(std::make_unique<LoopSource>(
            cam, static_cast<std::int64_t>(c), w.camera_fps, *logs_.back(),
            meter_, stop_sources_));
        s = fleet_->AddStream(*sources_.back());
      }
      FF_CHECK_MSG(s == c, "stream handles are assigned in AddStream order");
      streams_.push_back(s);
    }
    if (w.xcam_pair) {
      xcam::Topology topo;
      topo.AddOverlap(streams_[0], streams_[1]);
      xcam::CorrelatorConfig ccfg;
      ccfg.window_ns = 50'000'000;
      ccfg.min_similarity = 0.6f;
      fleet_->SetTopology(std::move(topo), ccfg, LabelTenant::kTap);
      fleet_->SetCrossEventSink([this](const xcam::CrossEventRecord& rec) {
        uplink_->EnqueueCrossEvent(rec);
      });
    }
    static const char* const kArchs[] = {"full_frame", "localized",
                                         "windowed"};
    for (int c = 0; c < w.cameras; ++c) {
      StreamLog& log = *logs_[static_cast<std::size_t>(c)];
      log.tenants = w.tenants;
      const std::int64_t h = cams[static_cast<std::size_t>(c)].frames[0].height();
      for (int t = 0; t < w.tenants; ++t) {
        core::McSpec spec;
        const std::string name =
            "app" + std::to_string(c) + "_" + std::to_string(t);
        if (w.xcam_pair) {
          feeds_.push_back(std::make_unique<LabelFeed>());
          spec.mc = std::make_unique<LabelTenant>(*fx_, h, w.width, name,
                                                  *feeds_.back());
        } else {
          const std::string arch = kArchs[(c * w.tenants + t) % 3];
          core::McConfig mcfg;
          mcfg.name = name;
          mcfg.tap = arch == "full_frame" ? "conv4_2/sep" : "conv3_2/sep";
          mcfg.seed = 1000 + static_cast<std::uint64_t>(c * 100 + t);
          mcfg.quantize = w.quantize && arch != "windowed";
          spec.mc = core::MakeMicroclassifier(arch, mcfg, *fx_, h, w.width);
        }
        spec.on_decision = [this](const core::McDecision& d) { OnDecision(d); };
        spec.on_event = [this](const core::EventRecord& ev) {
          uplink_->EnqueueEvent(ev);
        };
        fleet_->Attach(streams_[static_cast<std::size_t>(c)], std::move(spec));
      }
    }
    fleet_->SetUploadSink(
        [this](const core::UploadPacket& p) { OnUpload(p); });
    for (const core::StreamHandle s : streams_) {
      stores_.push_back(fleet_->edge_store_shared(s));
    }
    // Demand-fetch serving. net::MakeFleetFetchHandler resolves the store
    // through the fleet, i.e. under the fleet lock, on the uplink's pump
    // thread; while a sink holds that lock blocked on a full uplink queue
    // only the pump can drain, that deadlocks. So the stores are resolved
    // here, once, as EdgeFleet::edge_store_shared intends, and the serving
    // thread never touches the fleet.
    uplink_->SetFetchHandler([this](const net::FetchRequest& req) {
      const std::int64_t t0 = NowNs();
      net::ClipRecord clip = ServeFetch(req);
      const std::int64_t t1 = NowNs();
      {
        std::lock_guard<std::mutex> lock(meter_.mu);
        if (meter_.window) {
          meter_.fetch_serve_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
        }
      }
      meter_.tracer.Record("store.fetch_serve", t0, t1, req.request_id, 0,
                           pb::FetchSpanId(req.request_id));
      return clip;
    });
    for (const core::StreamHandle s : streams_) {
      const auto& f0 = cams[static_cast<std::size_t>(s)].frames[0];
      macs_per_frame_.push_back(
          static_cast<double>(fx_->MacsPerFrame(f0.height(), f0.width())));
    }

    // --- Start the planes and warm up. The uplink's pump is the box's own
    // thread and runs at the box's priority. ---
    RunAtComputePriority([this] { uplink_->Start(); });
    decoded_counted_.assign(streams_.size(), 0);
    datacenter_ = std::thread([this] { DatacenterMain(); });
    {
      std::lock_guard<std::mutex> lock(meter_.mu);
      meter_.harness_clocks = {ThreadCpuClock(datacenter_.native_handle()),
                               ThreadCpuClock(pthread_self())};
    }
    try {
      RunAtComputePriority([this] { WarmUp(); });
    } catch (...) {
      stop_sources_ = true;
      dc_stop_ = true;
      datacenter_.join();
      uplink_->Stop();
      throw;
    }
  }

  ~Rig() { Stop(); }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  // Opens the timed window, drives the workload for `seconds`, closes it.
  void Measure(double seconds, Snapshot* begin, Snapshot* end) {
    *begin = Take();
    {
      std::lock_guard<std::mutex> lock(meter_.mu);
      meter_.window = true;
      meter_.t0_ns = begin->ns = NowNs();
      meter_.edges.push_back({meter_.t0_ns, meter_.BoxCpuSeconds(),
                              meter_.tracer.on(), pb::ReadProcStat()});
    }
    const std::int64_t t1 =
        begin->ns + static_cast<std::int64_t>(seconds * 1e9);
    switch (w_.schedule) {
      case Schedule::kPipelined:
        SleepUntil(t1);
        break;
      case Schedule::kStep:
        RunAtComputePriority([&] {
          while (NowNs() < t1) StepTraced();
        });
        break;
      case Schedule::kOpenLoop:
        Generate(begin->ns, t1);
        break;
    }
    std::int64_t closed = 0;
    {
      std::lock_guard<std::mutex> lock(meter_.mu);
      meter_.t1_ns = closed = NowNs();
      meter_.tracer.set_on(false);
    }
    *end = Take();
    end->ns = closed;
  }

  // Stops input, drains every plane, and waits for the datacenter to hold
  // everything the edge sent. Idempotent.
  void Stop() {
    if (stopped_) return;
    stopped_ = true;
    stop_sources_ = true;
    if (fleet_->pipeline_active()) {
      fleet_->WaitPipelineIdle();
      fleet_->StopPipeline();
    }
    fleet_->Drain();
    uplink_->WaitIdle(60'000);
    const std::int64_t deadline = NowNs() + 60'000'000'000;
    while (NowNs() < deadline && (!AllDelivered() || FetchesOutstanding())) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    dc_stop_ = true;
    if (datacenter_.joinable()) datacenter_.join();
    uplink_->Stop();
  }

  void Check(Checks& checks) {
    // C1: every live tenant decides every frame its stream processed,
    // exactly once.
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      StreamLog& log = *logs_[i];
      std::lock_guard<std::mutex> lock(log.mu);
      const std::int64_t frames = fleet_->frames_processed(streams_[i]);
      const auto offered = static_cast<std::int64_t>(log.decisions.size());
      std::int64_t bad = log.over_decided + std::abs(offered - frames);
      for (const std::int32_t n : log.decisions) {
        if (n != log.tenants) ++bad;
      }
      checks.Expect(bad == 0, bad,
                    "C1: stream " + std::to_string(i) + " took " +
                        std::to_string(offered) + " frames, processed " +
                        std::to_string(frames) + ", " + std::to_string(bad) +
                        " not decided once per tenant");
    }
    // Delivery: the datacenter holds exactly what the uplink accepted.
    const net::UplinkStats us = uplink_->stats();
    const net::IngestStats is = ingest_->stats();
    checks.Expect(is.uploads_delivered == us.uploads_enqueued,
                  std::abs(is.uploads_delivered - us.uploads_enqueued),
                  "uploads delivered " + std::to_string(is.uploads_delivered) +
                      " != enqueued " + std::to_string(us.uploads_enqueued));
    checks.Expect(is.events_delivered == us.events_enqueued,
                  std::abs(is.events_delivered - us.events_enqueued),
                  "events delivered != enqueued");
    checks.Expect(is.xevents_delivered == us.xevents_enqueued,
                  std::abs(is.xevents_delivered - us.xevents_enqueued),
                  "xevents delivered != enqueued");
    checks.Expect(is.bad_records == 0, is.bad_records, "bad records at ingest");
    checks.Expect(us.records_dropped == 0, us.records_dropped,
                  "uplink dropped records");
    // Demand-fetch: every clip is bitwise the local fetch of its range.
    for (const auto& [stream, clip] : fetched_) {
      bool same = clip.ok;
      if (same) {
        const auto local = stores_[static_cast<std::size_t>(stream)]->FetchClip(
            clip.begin, clip.end, static_cast<double>(kFetchBitrate), 15);
        same = local.has_value() && local->begin == clip.begin &&
               local->end == clip.end && local->chunks == clip.chunks;
      }
      checks.Expect(same, 1,
                    "fetched clip [" + std::to_string(clip.begin) + ", " +
                        std::to_string(clip.end) + ") of stream " +
                        std::to_string(stream) +
                        " differs from the local fetch");
    }
    checks.Expect(fetches_requested_ == static_cast<std::int64_t>(fetched_.size()),
                  fetches_requested_ - static_cast<std::int64_t>(fetched_.size()),
                  "fetches left unanswered");
  }

  core::EdgeFleet& fleet() { return *fleet_; }
  net::UplinkClient& uplink() { return *uplink_; }
  const std::vector<std::shared_ptr<core::EdgeStore>>& stores() const {
    return stores_;
  }
  std::int64_t fetches_requested() const { return fetches_requested_; }
  // Serialized upload, event and cross-event record bytes the filter sent
  // (demand-fetch replies excluded): the uplink bandwidth the paper counts.
  // Call after Stop(): every fetch reply has then reached the datacenter.
  std::uint64_t filter_bytes() const {
    return uplink_->stats().record_bytes - reply_bytes_;
  }
  // Peak resident set of the process while this rig ran, less the decoded
  // frames the datacenter stand-in holds at the same moment: the memory of
  // the box (and the harness's fixed inputs), whatever the window admits.
  // Call after Stop().
  std::uint64_t peak_box_rss_bytes() const { return peak_box_rss_; }
  double macs_per_frame(std::size_t stream) const {
    return macs_per_frame_[stream];
  }
  std::optional<net::FaultyLink::Stats> up_fault_stats() const {
    if (up_faults_ == nullptr) return std::nullopt;
    return up_faults_->stats();
  }
  std::int64_t queue_peak() {
    std::int64_t peak = 0;
    for (const auto& st : fleet_->fleet_stats().streams) {
      peak = std::max(peak, st.queue_peak);
    }
    return peak;
  }

 private:
  static constexpr std::int64_t kFetchBitrate = 120'000;

  net::ClipRecord ServeFetch(const net::FetchRequest& req) const {
    net::ClipRecord clip;  // ok == false unless a clip is served
    if (req.stream < 0 || req.stream >= static_cast<std::int64_t>(stores_.size())) {
      return clip;
    }
    const core::EdgeStore& store = *stores_[static_cast<std::size_t>(req.stream)];
    auto fetched = store.FetchClip(req.begin, req.end,
                                   static_cast<double>(req.bitrate_bps), req.fps);
    const auto meta = store.meta();
    if (!fetched.has_value() || !meta.has_value()) return clip;
    clip.ok = true;
    clip.begin = fetched->begin;
    clip.end = fetched->end;
    clip.width = meta->width;
    clip.height = meta->height;
    clip.chunks = std::move(fetched->chunks);
    return clip;
  }

  Snapshot Take() {
    Snapshot s;
    s.ns = NowNs();
    s.cpu_s = meter_.BoxCpuSeconds();
    s.proc = pb::ReadProcStat();
    s.trunk_s = fleet_->base_dnn_seconds();
    s.mc_s = fleet_->mc_seconds();
    s.smooth_s = fleet_->smooth_seconds();
    s.upload_s = fleet_->upload_seconds();
    for (const core::StreamHandle h : streams_) {
      s.stream_frames.push_back(fleet_->frames_processed(h));
    }
    for (const auto& b : fleet_->bucket_stats()) {
      s.frames += b.frames;
      s.batches += b.batches;
    }
    return s;
  }

  static void SleepUntil(std::int64_t t_ns) {
    while (true) {
      const std::int64_t left = t_ns - NowNs();
      if (left <= 0) return;
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<std::int64_t>(left, 20'000'000)));
    }
  }

  void StepTraced() {
    const std::int64_t t0 = NowNs();
    const std::int64_t n = fleet_->Step();
    meter_.tracer.Record("core.step", t0, NowNs(),
                         static_cast<std::uint64_t>(++steps_));
    FF_CHECK_MSG(n > 0, "closed-loop sources never run dry");
  }

  void WarmUp() {
    // Enough batches that every tenant has decided frames (the windowed
    // MCs and K-voting lag a few frames), calibration has run, and the
    // pool threads exist.
    const std::int64_t target = 6 * w_.max_batch;
    switch (w_.schedule) {
      case Schedule::kPipelined: {
        fleet_->StartPipeline();
        std::unique_lock<std::mutex> lock(meter_.mu);
        meter_.cv.wait(lock, [&] { return meter_.completed_total >= target; });
        break;
      }
      case Schedule::kStep:
        while (true) {
          StepTraced();
          std::lock_guard<std::mutex> lock(meter_.mu);
          if (meter_.completed_total >= target) break;
        }
        break;
      case Schedule::kOpenLoop: {
        fleet_->StartPipeline();
        // As fast as the fleet takes frames, not the paced schedule: set-up
        // should measure work, not the cameras' frame interval. Queues are
        // kept shallow so the warm-up does not set the run's queue peak.
        const std::int64_t now = NowNs();
        for (std::int64_t k = 0; k < target / w_.cameras + 6; ++k) {
          for (int c = 0; c < w_.cameras; ++c) {
            while (fleet_->queued_frames(streams_[static_cast<std::size_t>(c)]) >= 2 ||
                   !Offer(c, k, now, /*count_refusal=*/false)) {
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
          }
        }
        next_k_ = target / w_.cameras + 6;
        std::unique_lock<std::mutex> lock(meter_.mu);
        meter_.cv.wait(lock, [&] { return meter_.completed_total >= target; });
        break;
      }
    }
  }

  // Offers frame k of camera c, due at `due_ns`. A full ingest queue
  // refuses it; the frame is never retried.
  bool Offer(int c, std::int64_t k, std::int64_t due_ns, bool count_refusal) {
    const core::StreamHandle s = streams_[static_cast<std::size_t>(c)];
    const Camera& cam = cams_[static_cast<std::size_t>(c)];
    const std::size_t i = static_cast<std::size_t>(k) % cam.frames.size();
    if (fleet_->queued_frames(s) >=
        static_cast<std::size_t>(fleet_->config().queue_capacity)) {
      if (count_refusal) {
        std::lock_guard<std::mutex> lock(meter_.mu);
        if (meter_.InWindow(due_ns)) {
          ++meter_.offered;
          ++meter_.refused;
        }
      }
      return false;
    }
    const std::int64_t t0 = NowNs();
    video::Frame f = cam.frames[i];
    const std::int64_t t1 = NowNs();
    f.capture_ts_ns = due_ns;
    StreamLog& log = *logs_[static_cast<std::size_t>(c)];
    {
      std::lock_guard<std::mutex> lock(log.mu);
      f.index = static_cast<std::int64_t>(log.created_ns.size());
      log.created_ns.push_back(due_ns);
      log.decisions.push_back(0);
    }
    for (int t = 0; t < w_.tenants; ++t) {
      feeds_[static_cast<std::size_t>(c * w_.tenants + t)]->Push(
          cam.labels[i] != 0);
    }
    {
      std::lock_guard<std::mutex> lock(meter_.mu);
      if (meter_.InWindow(due_ns)) {
        ++meter_.offered;
        ++meter_.next.calls;
        meter_.next.total_ms += static_cast<double>(t1 - t0) / 1e6;
      }
    }
    fleet_->Push(s, std::move(f));
    return true;
  }

  // The open-loop generator: frame k of every camera is due at a fixed
  // time; it is offered then (or as soon as the generator gets the CPU),
  // whatever the fleet is doing, and timed from its due time.
  void Generate(std::int64_t t0, std::int64_t t1) {
    const pb::PacingSchedule sched(t0, w_.camera_fps);
    for (std::int64_t k = 0;; ++k) {
      const std::int64_t due = sched.Due(k);
      if (due >= t1) break;
      SleepUntil(due);
      const std::int64_t lag = NowNs() - due;
      {
        std::lock_guard<std::mutex> lock(meter_.mu);
        meter_.gen_lag_ms.push_back(static_cast<double>(lag) / 1e6);
      }
      for (int c = 0; c < w_.cameras; ++c) {
        Offer(c, next_k_ + k, due, /*count_refusal=*/true);
      }
    }
  }

  void OnDecision(const core::McDecision& d) {
    StreamLog& log = *logs_[static_cast<std::size_t>(d.stream)];
    const std::int64_t now = NowNs();
    std::int64_t created = -1;
    {
      std::lock_guard<std::mutex> lock(log.mu);
      const auto i = static_cast<std::size_t>(d.frame_index);
      FF_CHECK_MSG(i < log.decisions.size(), "decision for a frame never offered");
      if (++log.decisions[i] != log.tenants) {
        if (log.decisions[i] > log.tenants) ++log.over_decided;
        return;
      }
      created = log.created_ns[i];
    }
    meter_.tracer.Record("frame", created, now,
                         pb::FrameSpanId(d.stream, d.frame_index),
                         pb::FrameSpanId(d.stream, d.frame_index));
    std::lock_guard<std::mutex> lock(meter_.mu);
    meter_.OnComplete(now, created, w_.slo_ms);
  }

  void OnUpload(const core::UploadPacket& p) {
    StreamLog& log = *logs_[static_cast<std::size_t>(p.stream)];
    const std::int64_t t0 = NowNs();
    {
      std::lock_guard<std::mutex> lock(log.mu);
      log.upload_ns.push_back(t0);
    }
    uplink_->Enqueue(p);
    const std::int64_t t1 = NowNs();
    {
      std::lock_guard<std::mutex> lock(meter_.mu);
      if (meter_.window) {
        ++meter_.enqueue.calls;
        meter_.enqueue.total_ms += static_cast<double>(t1 - t0) / 1e6;
      }
    }
    meter_.tracer.Record("net.uplink.enqueue", t0, t1,
                         pb::FrameSpanId(p.stream, p.frame_index), 0,
                         pb::FrameSpanId(p.stream, p.frame_index));
  }

  bool AllDelivered() {
    const net::UplinkStats us = uplink_->stats();
    const net::IngestStats is = ingest_->stats();
    return us.queued == 0 && us.in_flight == 0 &&
           is.uploads_delivered == us.uploads_enqueued &&
           is.events_delivered == us.events_enqueued &&
           is.xevents_delivered == us.xevents_enqueued;
  }
  bool FetchesOutstanding() {
    std::lock_guard<std::mutex> lock(fetch_mu_);
    return !outstanding_.empty();
  }

  // The datacenter: pumps the ingest, observes record delivery per stream,
  // and drives the periodic demand-fetches while the window is open.
  void DatacenterMain() {
    std::int64_t next_fetch = 0;
    std::int64_t next_rss_sample = 0;
    std::size_t fetch_rr = 0;
    while (!dc_stop_.load()) {
      const std::int64_t t0 = NowNs();
      const std::size_t n = ingest_->Pump();
      const std::int64_t t1 = NowNs();
      if (n > 0) {
        {
          std::lock_guard<std::mutex> lock(meter_.mu);
          if (meter_.window && meter_.t1_ns == 0) {
            meter_.pump_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
          }
        }
        meter_.tracer.Record("net.ingest.pump", t0, t1, n);
        ObserveDeliveries(t1);
      }
      // Demand-fetch a clip of the next stream: always its oldest archived
      // `fetch_frames`, from a keyframe, so every request decodes and
      // re-encodes the same frames while appends continue beside it.
      bool window_open = false;
      {
        std::lock_guard<std::mutex> lock(meter_.mu);
        window_open = meter_.window && meter_.t1_ns == 0;
      }
      std::lock_guard<std::mutex> lock(fetch_mu_);
      if (window_open && t1 >= next_fetch && outstanding_.empty()) {
        const std::size_t s = fetch_rr++ % streams_.size();
        const core::EdgeStore& store = *stores_[s];
        const std::int64_t begin =
            (store.first_available() + kArchiveGop - 1) / kArchiveGop * kArchiveGop;
        if (begin + w_.fetch_frames <= store.end_available()) {
          const std::uint64_t id =
              ingest_->RequestClip(kFleetId, streams_[s], begin,
                                   begin + w_.fetch_frames, kFetchBitrate, 15);
          outstanding_[id] = {NowNs(), static_cast<std::int64_t>(s)};
          ++fetches_requested_;
          next_fetch = t1 + static_cast<std::int64_t>(w_.fetch_period_ms * 1e6);
        }
      }
      for (auto it = outstanding_.begin(); it != outstanding_.end();) {
        auto clip = ingest_->TakeFetched(it->first);
        if (!clip.has_value()) {
          ++it;
          continue;
        }
        const std::int64_t now = NowNs();
        meter_.tracer.Record("fetch", it->second.first, now, it->first,
                             pb::FetchSpanId(it->first));
        {
          std::lock_guard<std::mutex> mlock(meter_.mu);
          meter_.fetch_ms.push_back(
              static_cast<double>(now - it->second.first) / 1e6);
        }
        reply_bytes_ += ReplyBytes(it->first, *clip);
        fetched_.emplace_back(it->second.second, std::move(*clip));
        it = outstanding_.erase(it);
      }
      if (t1 >= next_rss_sample) {
        SampleResidentMemory();
        next_rss_sample = t1 + 5'000'000;
      }
      if (n == 0) std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    SampleResidentMemory();
  }

  // Size of the record the edge serialized to answer fetch `id`.
  static std::uint64_t ReplyBytes(std::uint64_t id, const net::FetchedClip& c) {
    net::ClipRecord rec;
    rec.request_id = id;
    rec.stream = c.stream;
    rec.ok = c.ok;
    rec.begin = c.begin;
    rec.end = c.end;
    rec.width = c.width;
    rec.height = c.height;
    rec.chunks = c.chunks;
    return net::EncodeClipRecord(rec).size();
  }

  // Datacenter thread only: it alone pumps, so the receivers' frames do
  // not change while they are counted.
  void SampleResidentMemory() {
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      const core::DatacenterReceiver* rx =
          ingest_->receiver(kFleetId, streams_[i]);
      if (rx == nullptr) continue;
      const auto& frames = rx->frames();
      for (std::size_t& k = decoded_counted_[i]; k < frames.size(); ++k) {
        decoded_bytes_ += static_cast<std::uint64_t>(frames[k].pixels()) * 3;
      }
    }
    const std::uint64_t rss = ResidentBytes();
    if (rss > decoded_bytes_) {
      peak_box_rss_ = std::max(peak_box_rss_, rss - decoded_bytes_);
    }
  }

  void ObserveDeliveries(std::int64_t now) {
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      const core::DatacenterReceiver* rx = ingest_->receiver(kFleetId, streams_[i]);
      if (rx == nullptr) continue;
      const std::int64_t delivered =
          rx->frames_received() + rx->tombstones_received();
      StreamLog& log = *logs_[i];
      std::vector<std::int64_t> sent;
      {
        std::lock_guard<std::mutex> lock(log.mu);
        for (; log.delivered_seen < delivered; ++log.delivered_seen) {
          sent.push_back(log.upload_ns[static_cast<std::size_t>(log.delivered_seen)]);
        }
      }
      for (const std::int64_t t : sent) {
        meter_.tracer.Record("net.delivery", t, now, streams_[i]);
      }
      std::lock_guard<std::mutex> lock(meter_.mu);
      for (const std::int64_t t : sent) {
        if (meter_.InWindow(t)) {
          const double ms = static_cast<double>(now - t) / 1e6;
          meter_.delivery_ms.push_back(ms);
          const auto sec =
              static_cast<std::size_t>((t - meter_.t0_ns) / 1'000'000'000);
          if (meter_.delivery_ms_by_second.size() <= sec) {
            meter_.delivery_ms_by_second.resize(sec + 1);
          }
          meter_.delivery_ms_by_second[sec].push_back(ms);
        }
      }
    }
  }

  const Workload& w_;
  const std::vector<Camera>& cams_;
  Meter& meter_;
  std::atomic<bool> stop_sources_{false};
  std::atomic<bool> dc_stop_{false};
  bool stopped_ = false;
  std::int64_t steps_ = 0;
  std::int64_t next_k_ = 0;
  // Owned by the datacenter thread until it is joined.
  std::uint64_t reply_bytes_ = 0;
  std::vector<std::size_t> decoded_counted_;
  std::uint64_t decoded_bytes_ = 0;
  std::uint64_t peak_box_rss_ = 0;

  // Declared in dependency order: links, then the box, then the planes
  // that call into it; destroyed in reverse.
  std::unique_ptr<net::LocalLink> edge_end_, server_end_;
  std::unique_ptr<net::FaultyLink> up_faults_, down_faults_;
  std::unique_ptr<TracedLink> edge_link_;
  std::vector<std::unique_ptr<StreamLog>> logs_;
  std::vector<std::unique_ptr<LabelFeed>> feeds_;
  std::vector<std::unique_ptr<LoopSource>> sources_;
  std::unique_ptr<dnn::FeatureExtractor> fx_;
  std::unique_ptr<net::UplinkClient> uplink_;
  std::unique_ptr<net::DatacenterIngest> ingest_;
  std::unique_ptr<core::EdgeFleet> fleet_;
  std::vector<core::StreamHandle> streams_;
  std::vector<std::shared_ptr<core::EdgeStore>> stores_;
  std::vector<double> macs_per_frame_;  // trunk MACs, per stream geometry

  std::mutex fetch_mu_;
  std::map<std::uint64_t, std::pair<std::int64_t, std::int64_t>> outstanding_;
  std::vector<std::pair<std::int64_t, net::FetchedClip>> fetched_;
  std::int64_t fetches_requested_ = 0;

  std::thread datacenter_;
};

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int>(std::thread::hardware_concurrency());
  }
  return CPU_COUNT(&set);
}

// Per-slice rates between consecutive edges, for the slices whose recording
// state matches `traced` (all slices when nullopt).
struct SliceRates {
  std::vector<double> fps, cpu_ms_per_frame;
};
SliceRates Slices(const std::vector<Meter::Edge>& edges, std::int64_t frames,
                  std::optional<bool> traced) {
  SliceRates r;
  for (std::size_t i = 1; i < edges.size(); ++i) {
    // The slice between edges i-1 and i ran with edge i-1's recording state.
    if (traced.has_value() && edges[i - 1].traced != *traced) continue;
    const double secs = static_cast<double>(edges[i].ns - edges[i - 1].ns) / 1e9;
    if (secs <= 0) continue;
    r.fps.push_back(static_cast<double>(frames) / secs);
    r.cpu_ms_per_frame.push_back((edges[i].cpu_s - edges[i - 1].cpu_s) * 1e3 /
                                 static_cast<double>(frames));
  }
  return r;
}

// "[fps, steal]" per slice: how steady the run was, and what the host took.
std::string SliceDiagnostics(const std::vector<Meter::Edge>& edges,
                             std::int64_t frames) {
  std::string out;
  for (std::size_t i = 1; i < edges.size(); ++i) {
    const double secs =
        static_cast<double>(edges[i].ns - edges[i - 1].ns) / 1e9;
    const double steal = edges[i].host && edges[i - 1].host
                             ? pb::StealFraction(*edges[i - 1].host, *edges[i].host)
                             : -1.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s[%.2f,%.3f]", i > 1 ? "," : "",
                  static_cast<double>(frames) / secs, steal);
    out += buf;
  }
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_out";
  std::string commit = "unknown";
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else if (k == "--commit") a.commit = v;
    else return std::nullopt;
  }
  if (argc % 2 != 1 || a.workload.empty() || !(a.seconds > 0)) {
    return std::nullopt;
  }
  return a;
}

int Run(const Args& args) {
  const auto all = Workloads();
  const auto wit = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return w.name == args.workload;
  });
  if (wit == all.end()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& w = *wit;
  const std::filesystem::path out = args.out;
  std::filesystem::create_directories(out);
  // Per-run scratch (the durable archive), removed however the run ends.
  struct ScratchDir {
    std::filesystem::path path;
    explicit ScratchDir(std::filesystem::path p) : path(std::move(p)) {
      std::filesystem::remove_all(path);
      std::filesystem::create_directories(path);
    }
    ~ScratchDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
    ScratchDir(const ScratchDir&) = delete;
    ScratchDir& operator=(const ScratchDir&) = delete;
  };
  const ScratchDir scratch_dir(out / ("run-" + w.name + "-" +
                                      std::to_string(::getpid())));
  const std::filesystem::path& scratch = scratch_dir.path;

  RunAtComputePriority([] { util::GlobalPool(); });  // workers inherit it
  const std::vector<Camera> cams = MakeInputs(w, args.seed);

  // Set up kSetups times; time each up to the first timed frame.
  Meter* meter = nullptr;
  std::vector<std::unique_ptr<Meter>> meters;
  std::unique_ptr<Rig> rig;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();
    meters.push_back(std::make_unique<Meter>(w.slice_frames));
    meter = meters.back().get();
    meter->trace_run = args.trace;
    const std::int64_t t0 = NowNs();
    rig = std::make_unique<Rig>(w, cams, *meter, scratch);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  Snapshot s0, s1;
  meter->tracer.set_on(args.trace);
  rig->Measure(args.seconds, &s0, &s1);
  rig->Stop();
  Checks checks;
  rig->Check(checks);

  // --- End-to-end. ---
  const double wall_s = static_cast<double>(s1.ns - s0.ns) / 1e9;
  // Host steal over the window: a diagnostic that tells a noisy run from a
  // regression; it never discards or reweights anything.
  const double steal =
      s0.proc && s1.proc ? pb::StealFraction(*s0.proc, *s1.proc) : -1.0;
  const SliceRates all_slices = Slices(meter->edges, w.slice_frames, std::nullopt);
  const auto p50 = [](const std::vector<double>& v) {
    return pb::Percentile(v, 0.5);
  };
  std::vector<std::string> missing;
  const auto need = [&](std::optional<double> v, const char* what) {
    if (!v.has_value()) missing.push_back(what);
    return v.value_or(0.0);
  };
  const double fps = need(
      all_slices.fps.empty() ? std::nullopt
                             : std::optional<double>(pb::Median(all_slices.fps)),
      "fps slices");
  const double cpu_ms = all_slices.cpu_ms_per_frame.empty()
                            ? 0.0
                            : pb::Median(all_slices.cpu_ms_per_frame);
  const double lat50 = need(p50(meter->decision_ms), "decision latency p50");
  const double lat95 =
      need(pb::Percentile(meter->decision_ms, 0.95), "decision latency p95");
  const double on_time =
      meter->offered > 0 ? static_cast<double>(meter->on_time) /
                               static_cast<double>(meter->offered)
                         : 0.0;
  const net::UplinkStats us = rig->uplink().stats();
  const std::int64_t frames_total = rig->fleet().frames_processed();
  const double uplink_bpf = static_cast<double>(rig->filter_bytes()) /
                            static_cast<double>(std::max<std::int64_t>(1, frames_total));
  // Per second, then the median: a host episode shorter than half the
  // window does not move it.
  const double delivery50 =
      need(pb::MedianOfGroupP50s(meter->delivery_ms_by_second, 5),
           "delivery latency p50 (5 seconds of 20 samples)");
  const double fetch50 = need(p50(meter->fetch_ms), "fetch latency p50");
  for (const std::string& m : missing) {
    checks.Expect(false, 1, "too few samples for " + m);
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"fps", fps, "1/s"},
        {"cpu_ms_per_frame", cpu_ms, "ms"},
        {"decision_latency_p50_ms", lat50, "ms"},
        {"decision_latency_p95_ms", lat95, "ms"},
        {"on_time_frac", on_time, "frac"},
        {"uplink_bytes_per_frame", uplink_bpf, "B"},
        {"delivery_latency_p50_ms", delivery50, "ms"},
        {"fetch_latency_p50_ms", fetch50, "ms"},
        {"setup_s", pb::Median(setup_s), "s"},
        {"peak_rss_mb",
         static_cast<double>(rig->peak_box_rss_bytes()) / (1 << 20), "MB"},
    };
  } else {
    // --- Per layer, from the fleet's accounting over the window and the
    // seam timings. ---
    const double frames =
        static_cast<double>(std::max<std::int64_t>(1, s1.frames - s0.frames));
    double macs = 0, tenant_frames = 0;
    for (std::size_t i = 0; i < s0.stream_frames.size(); ++i) {
      const double df =
          static_cast<double>(s1.stream_frames[i] - s0.stream_frames[i]);
      macs += df * rig->macs_per_frame(i);
      tenant_frames += df * w.tenants;
    }
    const double trunk_s = s1.trunk_s - s0.trunk_s;
    const double mc_s = s1.mc_s - s0.mc_s;
    const double tail_s = (s1.smooth_s - s0.smooth_s) + (s1.upload_s - s0.upload_s);
    const double wall_ms_per_frame = wall_s * 1e3 / frames;
    const SliceRates on = Slices(meter->edges, w.slice_frames, true);
    const SliceRates off = Slices(meter->edges, w.slice_frames, false);
    const auto med = [](const std::vector<double>& v) {
      return v.empty() ? 0.0 : pb::Median(v);
    };
    std::uint64_t archived_bytes = 0;
    std::int64_t archived_frames = 0;
    for (const auto& st : rig->stores()) {
      if (st == nullptr) continue;
      archived_bytes += st->stored_bytes();
      archived_frames += st->end_available() - st->first_available();
    }
    const auto faults = rig->up_fault_stats();
    const auto xs = w.xcam_pair ? rig->fleet().xcam_stats()
                                : xcam::Correlator::Stats{};
    metrics = {
        {"dnn.trunk_ms_per_frame", trunk_s * 1e3 / frames, "ms"},
        {"dnn.trunk_gmac_per_s", trunk_s > 0 ? macs / trunk_s / 1e9 : 0.0,
         "GMAC/s"},
        {"dnn.trunk_share", trunk_s * 1e3 / frames / wall_ms_per_frame, "frac"},
        {"core.mc_ms_per_frame", mc_s * 1e3 / frames, "ms"},
        {"core.mc_us_per_tenant_frame",
         tenant_frames > 0 ? mc_s * 1e6 / tenant_frames : 0.0, "us"},
        {"core.mc_share", mc_s * 1e3 / frames / wall_ms_per_frame, "frac"},
        {"core.tail_ms_per_frame", tail_s * 1e3 / frames, "ms"},
        {"core.batch_occupancy",
         frames / static_cast<double>(std::max<std::int64_t>(1, s1.batches - s0.batches)) /
             static_cast<double>(w.max_batch),
         "frac"},
        {"core.queue_peak", static_cast<double>(rig->queue_peak()), "frames"},
        {"core.cores_busy", (s1.cpu_s - s0.cpu_s) / wall_s, "cores"},
        {"video.next_ms_per_frame",
         meter->next.calls > 0 ? meter->next.total_ms / meter->next.calls : 0.0,
         "ms"},
        {"store.fetch_serve_ms_p50",
         pb::Percentile(meter->fetch_serve_ms, 0.5, 0).value_or(0.0), "ms"},
        {"store.archive_bytes_per_frame",
         archived_frames > 0 ? static_cast<double>(archived_bytes) / archived_frames
                             : 0.0,
         "B"},
        {"net.uplink.retransmit_ratio",
         us.frames_sent > 0 ? static_cast<double>(us.retransmits) / us.frames_sent
                            : 0.0,
         "frac"},
        {"net.uplink.wire_bytes_per_record_byte",
         us.record_bytes > 0 ? static_cast<double>(us.wire_bytes) / us.record_bytes
                             : 0.0,
         "B/B"},
        {"net.uplink.enqueue_ms_per_frame",
         meter->enqueue.total_ms / frames, "ms"},
        {"net.ingest.pump_us_p50",
         pb::Percentile(meter->pump_ms, 0.5, 0).value_or(0.0) * 1e3, "us"},
        {"net.link.drop_frac",
         faults && faults->sent > 0
             ? static_cast<double>(faults->dropped) / faults->sent
             : 0.0,
         "frac"},
        {"xcam.suppressed_frac",
         us.uploads_enqueued > 0
             ? static_cast<double>(rig->fleet().frames_suppressed()) /
                   us.uploads_enqueued
             : 0.0,
         "frac"},
        {"xcam.pairs_tested_per_event",
         xs.events_observed > 0
             ? static_cast<double>(xs.pairs_tested) / xs.events_observed
             : 0.0,
         "count"},
        {"gen.lag_ms_p95",
         pb::Percentile(meter->gen_lag_ms, 0.95, 0).value_or(0.0), "ms"},
        // Tracing overhead: traced minus untraced slices of this run.
        {"trace.fps_delta", med(on.fps) - med(off.fps), "1/s"},
        {"trace.cpu_ms_per_frame_delta",
         med(on.cpu_ms_per_frame) - med(off.cpu_ms_per_frame), "ms"},
        {"host.steal_frac", std::max(0.0, steal), "frac"},
    };
    const std::string trace_path =
        (out / ("trace-" + w.name + "-" + std::to_string(args.seed) + ".json"))
            .string();
    checks.Expect(meter->tracer.WriteChromeTrace(trace_path), 1,
                  "cannot write " + trace_path);
  }

  // --- Stamp: what this run ran on, and how much the host stole. ---
  std::printf(
      "{\"stamp\":{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%.3f,"
      "\"trace\":%d,\"nproc\":%d,\"cpu_model\":\"%s\",\"isa\":\"%s\","
      "\"pool_threads\":%zu,\"compute_nice\":%d,\"build_type\":\"%s\","
      "\"commit\":\"%s\","
      "\"host.steal_frac\":%.4f,\"decision_latency_samples\":%zu,"
      "\"delivery_latency_samples\":%zu,"
      "\"delivery_latency_pooled_p50_ms\":%.4f,\"fetch_latency_samples\":%zu,"
      "\"frames_decided_in_window\":%lld,\"spans\":%zu,\"slices\":[%s]}}\n",
      w.name.c_str(), static_cast<unsigned long long>(args.seed), wall_s,
      args.trace ? 1 : 0, AvailableCpus(), JsonEscape(CpuModel()).c_str(),
      nn::kernels::IsaName(nn::kernels::ActiveIsa()), util::GlobalPool().size(),
      kComputeNice, PERFBENCH_BUILD_TYPE, JsonEscape(args.commit).c_str(), steal,
      meter->decision_ms.size(), meter->delivery_ms.size(),
      p50(meter->delivery_ms).value_or(-1.0),
      meter->fetch_ms.size(), static_cast<long long>(meter->completed_window),
      meter->tracer.size(), SliceDiagnostics(meter->edges, w.slice_frames).c_str());
  for (const std::string& p : checks.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  }

  const std::int64_t attempted = meter->offered + rig->fetches_requested();
  const std::int64_t failed = meter->refused + checks.failed;
  rig.reset();

  std::string json = "{\"correct\": ";
  json += checks.problems.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Args> args;
  try {
    args = ParseArgs(argc, argv);
  } catch (const std::exception&) {  // a non-numeric --seed or --seconds
  }
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: ffbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out <dir>] [--commit <id>]\n");
    return 2;
  }
  // Thread budget: pool workers + the fleet's compute and prefetch stages
  // fill the CPUs; the uplink pump, the datacenter and the main thread mostly
  // sleep. The program's default (one worker per CPU plus its stage
  // threads) oversubscribes a small box and buys no throughput.
  const int pool = std::max(1, AvailableCpus() - 2);
  setenv("FF_NUM_THREADS", std::to_string(pool).c_str(), 1);
  try {
    return Run(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
