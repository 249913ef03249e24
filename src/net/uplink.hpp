// The edge side of the uplink plane (layer 3 of 3): one async UplinkClient
// per EdgeFleet turns the fleet's in-process UploadSink/EventSink pushes
// into reliable delivery over an unreliable Link.
//
// Shape (the classic sliding-window ARQ, cf. the ndnrtc retransmission
// controller the ROADMAP points at):
//
//   Enqueue ──► bounded send queue ──► fragment ──► window ──► Link.Send
//      ▲              (records)        (frames)       │            │
//      │                                              │◄── ACK ────┘
//      └── backpressure (block) or drop-oldest        └── timeout ► resend
//                                                         (exp. backoff)
//
// * The SEND QUEUE holds whole records (serialized UploadPackets or
//   EventRecords) and is bounded by queue_capacity. When full, Enqueue
//   either BLOCKS — backpressure that propagates straight into the fleet's
//   upload path, since the fleet calls its UploadSink with the fleet lock
//   held — or drops the OLDEST queued record (drop_oldest = true), the
//   freshest-data-wins policy for sustained overload. Records dropped here
//   never receive a record_seq, so the ingest side sees no gap.
// * Per-stream record_seqs are assigned at DEQUEUE time, in queue order;
//   the ingest side delivers each stream's records in exactly this order.
// * Each record is fragmented into DATA frames of <= max_payload bytes;
//   at most `window` frames are unacked at once. Every transmission gets a
//   fresh wire_seq; a frame unacked after rto_ms is retransmitted with
//   exponential backoff (factor `backoff`, capped at max_rto_ms).
//
// Pump(now_ms) advances the whole state machine one tick (poll acks,
// retransmit due frames, launch new ones) and is the deterministic seam the
// tests drive with a fake clock. Start() runs the same pump on a dedicated
// thread against the configured clock — the async mode deployments use.
//
// DEMAND-FETCH SERVING (paper §3.2): the same link also carries datacenter →
// edge FETCH frames. With a FetchHandler installed, the pump collects fetch
// requests addressed to this fleet and serves them on the pumping thread,
// OUTSIDE the client lock (the handler typically re-encodes a clip — real
// work — and may take the store locks, never the fleet lock). The resulting
// ClipRecord rides the normal reliable record path back. request_ids
// already answered are deduped (the ingest re-sends requests until the clip
// arrives), and a response that finds the send queue full is DROPPED —
// never block the pump on its own queue — un-marking the id so the ingest's
// re-request is served.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/datacenter.hpp"
#include "core/edge_fleet.hpp"
#include "core/events.hpp"
#include "net/link.hpp"
#include "net/wire.hpp"

namespace ff::net {

struct UplinkConfig {
  // Routing id of the fleet this client serves (DatacenterIngest::AddFleet
  // must register the same id).
  std::uint64_t fleet = 0;
  // Bounded send queue, in records.
  std::size_t queue_capacity = 64;
  // Overflow policy: false = Enqueue blocks until the pump frees a slot
  // (requires the async pump thread or a concurrently pumping caller);
  // true = the oldest queued record is dropped and counted.
  bool drop_oldest = false;
  // Max unacked DATA frames in flight.
  std::size_t window = 32;
  // Fragment payload budget per DATA frame, bytes.
  std::size_t max_payload = 1200;
  // Initial retransmit timeout, backoff factor, and cap.
  std::int64_t rto_ms = 40;
  double backoff = 2.0;
  std::int64_t max_rto_ms = 2000;
  // Monotonic clock in ms; null = std::chrono::steady_clock. Tests inject a
  // fake clock and drive Pump() by hand.
  std::function<std::int64_t()> clock_ms = nullptr;
  // Async pump cadence (Start()).
  std::int64_t pump_interval_ms = 1;
};

struct UplinkStats {
  std::int64_t uploads_enqueued = 0;
  std::int64_t events_enqueued = 0;
  std::int64_t xevents_enqueued = 0;  // cross-camera fused events
  std::int64_t records_sent = 0;     // records fully fragmented to the wire
  std::int64_t frames_sent = 0;      // first transmissions
  std::int64_t retransmits = 0;      // re-sends after timeout
  std::int64_t frames_acked = 0;
  std::int64_t records_dropped = 0;  // drop-oldest overflow victims
  std::int64_t fetches_received = 0;  // valid FETCH frames for this fleet
  std::int64_t fetches_served = 0;    // handler ran, response enqueued
  std::int64_t fetches_deduped = 0;   // request_id already answered
  std::int64_t fetch_responses_dropped = 0;  // send queue full at reply time
  std::uint64_t wire_bytes = 0;      // every byte offered to the link
  std::uint64_t record_bytes = 0;    // serialized record bytes enqueued
  std::size_t queued = 0;            // snapshot: records awaiting a seq
  std::size_t in_flight = 0;         // snapshot: unacked frames
};

// Serves one fetch request: fill ok/begin/end/width/height/chunks (the
// client overwrites request_id and stream from the request). Runs on the
// pumping thread with NO uplink lock held; a throw is caught and answered
// with ok == false, so an unknown stream or evicted range never kills the
// pump. Must not call back into the serving UplinkClient.
using FetchHandler = std::function<ClipRecord(const FetchRequest&)>;

// The standard handler: resolve the stream's edge store in `fleet` (live or
// retired — fetch-after-detach works) and FetchClip the requested range.
// ok == false when the range no longer overlaps the archive or the stream
// handle was never seen.
FetchHandler MakeFleetFetchHandler(core::EdgeFleet& fleet);

class UplinkClient {
 public:
  // `link` is the edge-side end of the channel to the ingest server; it
  // must outlive the client.
  UplinkClient(Link& link, const UplinkConfig& cfg);
  // Stops the pump thread if running. Does NOT flush — call WaitIdle()
  // first when delivery of everything queued matters.
  ~UplinkClient();

  UplinkClient(const UplinkClient&) = delete;
  UplinkClient& operator=(const UplinkClient&) = delete;

  // Serializes and queues one record. Thread-safe; blocking or dropping per
  // UplinkConfig. Throws util::CheckError if called after Stop() unblocked
  // a full queue.
  void Enqueue(const core::UploadPacket& packet);
  void EnqueueEvent(const core::EventRecord& ev);
  // Cross-camera fused events ride a dedicated pseudo-stream lane (-1) so
  // they keep their own record_seq order independent of any camera stream.
  void EnqueueCrossEvent(const xcam::CrossEventRecord& rec);

  // Sinks bound to Enqueue/EnqueueEvent, ready for
  // EdgeFleet::SetUploadSink / McSpec::on_event. NOTE the fleet fires sinks
  // with its own lock held: with the blocking policy, a full queue stalls
  // the fleet's schedule — that is the designed backpressure, and it is
  // deadlock-free because the pump never takes the fleet lock (the fetch
  // handler resolves stores through EdgeFleet::edge_store_shared).
  core::UploadSink sink();
  core::EventSink event_sink();
  // Ready for EdgeFleet::SetCrossEventSink; same locking caveat as sink().
  core::CrossEventSink cross_event_sink();

  // Installs (or clears) the demand-fetch handler. Fetch frames arriving
  // while no handler is installed are dropped (counted as received only).
  void SetFetchHandler(FetchHandler handler);

  // One deterministic tick at the given clock reading: drains acks and fetch
  // requests off the link, retransmits every frame past its deadline,
  // launches queued records while the window has room, then serves collected
  // fetches (lock released). The no-argument form reads the configured clock.
  void Pump(std::int64_t now_ms);
  void Pump();

  // Async mode: a dedicated thread calls Pump() every pump_interval_ms.
  void Start();
  void Stop();
  bool running() const;

  // Nothing queued, nothing awaiting fragmentation, nothing unacked.
  bool idle() const;
  // Blocks until idle() or the deadline; requires the pump thread (or a
  // concurrent pumper). Returns idle().
  bool WaitIdle(std::int64_t timeout_ms);

  UplinkStats stats() const;
  const UplinkConfig& config() const { return cfg_; }

 private:
  struct QueuedRecord {
    std::int64_t stream = -1;
    std::string bytes;
  };
  struct InFlight {
    std::string encoded;  // ready-to-send wire frame
    std::int64_t due_ms = 0;
    std::int64_t rto_ms = 0;
  };

  void EnqueueRecord(std::int64_t stream, std::string bytes);
  // Collects fetch requests accepted this tick into *fetches (dedup and the
  // received/deduped counters happen here, under the lock).
  void PumpLocked(std::int64_t now_ms, std::unique_lock<std::mutex>& lock,
                  std::vector<FetchRequest>* fetches);
  // Runs the handler per request and enqueues replies. Caller must NOT hold
  // mu_ — the handler does real work and the reply re-takes the lock.
  void ServeFetches(const std::vector<FetchRequest>& fetches);
  std::int64_t NowMs() const;
  void ThreadMain();

  Link& link_;
  const UplinkConfig cfg_;

  mutable std::mutex mu_;
  std::condition_variable space_cv_;  // queue has room (or stopping)
  std::condition_variable idle_cv_;   // idle() became true
  std::deque<QueuedRecord> queue_;
  // Fragments of the record currently leaving the queue, awaiting window
  // room (bounded by one record's fragment count).
  std::deque<DataFrame> backlog_;
  std::map<std::uint64_t, InFlight> in_flight_;  // by wire_seq
  std::map<std::int64_t, std::uint64_t> next_record_seq_;  // per stream
  std::uint64_t next_wire_seq_ = 0;
  FetchHandler fetch_handler_;
  // Answered request_ids, bounded FIFO (kFetchDedupCap): membership dedups
  // the ingest's re-sent requests; eviction order forgets the oldest.
  std::set<std::uint64_t> served_fetch_ids_;
  std::deque<std::uint64_t> served_fetch_order_;
  UplinkStats stats_;
  bool stopping_ = false;  // unblocks Enqueue during Stop()
  bool thread_running_ = false;
  std::thread pump_thread_;
};

}  // namespace ff::net
