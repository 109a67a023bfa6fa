// Shared pieces of the repository benchmark: latency histograms and the
// percentile rule, the span log that attributes wall time to layers, the
// self-validating kv value format, the seeded op streams, and the run record.
//
// Everything here is harness code: the program under test (src/) only ever
// receives the generated ops and is timed from the outside, around the calls
// into each module's public functions.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/rng.h"
#include "src/base/types.h"

namespace perfbench {

using vnros::u32;
using vnros::u64;
using vnros::u8;
using vnros::usize;

inline u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

// ---------------------------------------------------------------------------
// Latency histogram. Exact 1 ns buckets below 2048 ns, then 1024 buckets per
// power of two (0.1% relative width), so millions of samples cost a fixed
// few hundred KiB. Quantiles interpolate linearly inside the bucket that
// holds the target rank: the clock reads whole nanoseconds, but a latency is
// continuous, and the interpolated value keeps sub-bucket changes visible.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void record(u64 ns);
  void merge(const LatencyHistogram& other);
  void clear();

  u64 count() const { return count_; }
  // Value (ns) at quantile q in [0, 1]; 0 when empty.
  double quantile(double q) const;

 private:
  static constexpr u32 kSubBits = 10;
  static constexpr u64 kSub = u64{1} << kSubBits;  // buckets per power of two
  static constexpr u32 kMaxExp = 44;               // ~4.8 hours in ns
  static usize bucket_of(u64 ns);
  static u64 bucket_low(usize b);
  static u64 bucket_width(usize b);

  std::vector<u64> buckets_;
  u64 count_ = 0;
};

// The percentile rule for tails: the highest of the standard percentiles
// that still has at least ten samples strictly beyond it, so a tail is never
// read off a handful of samples. Returns nullopt below 11 samples.
std::optional<double> tail_percentile(u64 samples);

// p50 plus a tail percentile, each with the sample count behind it.
struct LatencySummary {
  u64 samples = 0;
  double p50_us = 0;
  double p99_us = 0;   // p99, or the rule's percentile when p99 lacks samples
  double tail_pct = 0; // which percentile p99_us actually is (99 when supported)
  double rule_pct = 0; // the highest percentile the rule allows at this count
  double rule_us = 0;  // the value at rule_pct
  u64 windows = 1;     // windows the p50/p99 are medians over
  u64 window_samples_min = 0;
};
LatencySummary summarize(const LatencyHistogram& h);

// A phase measured in consecutive windows. Each window is summarized on its
// own and the reported p50 and p99 are the medians over the windows, so a
// few seconds of interference from other tenants of the host move one
// window instead of the figure. The percentile rule applies per window.
class WindowedLatency {
 public:
  // Summarizes `h` as one window, folds it into the pooled histogram and
  // clears it for the next window. An empty histogram is skipped.
  void close_window(LatencyHistogram& h);
  LatencySummary summary() const;
  const LatencyHistogram& pooled() const { return pooled_; }

 private:
  std::vector<LatencySummary> windows_;
  LatencyHistogram pooled_;
};

// ---------------------------------------------------------------------------
// Span log. One log per OS thread; spans nest strictly (open/close pairs on
// one thread). Each closed span carries its name, start, end, parent and op
// id; its self time is its duration minus the time its direct children
// cover. Per-name totals are kept for every span; the span records
// themselves are kept up to `keep` and written out at the end of the run.
struct Span {
  u32 name = 0;
  u32 id = 0;      // 1-based within the log
  u32 parent = 0;  // 0 = root
  u64 op = 0;      // client op id; 0 = shared work serving many ops
  u64 start_ns = 0;
  u64 end_ns = 0;
  u64 child_ns = 0;  // time covered by direct children
};

struct LayerTotals {
  u64 count = 0;
  u64 busy_ns = 0;  // sum of span durations
  u64 self_ns = 0;  // busy minus direct children
};

class SpanLog {
 public:
  // `names` is the fixed layer table; span names index into it.
  SpanLog(std::vector<std::string> names, usize keep);

  void open(u32 name, u64 op, u64 t_ns);
  void close(u64 t_ns);

  const std::vector<std::string>& names() const { return names_; }
  const std::vector<LayerTotals>& totals() const { return totals_; }
  const std::vector<Span>& kept() const { return kept_; }
  u64 dropped() const { return dropped_; }
  // Sum of root span durations: the wall time the timed layers account for.
  u64 root_ns() const { return root_ns_; }

  void merge(const SpanLog& other);  // totals only (kept spans stay per log)

 private:
  std::vector<std::string> names_;
  usize keep_;
  std::vector<Span> stack_;
  std::vector<Span> kept_;
  std::vector<LayerTotals> totals_;
  u32 next_id_ = 1;
  u64 dropped_ = 0;
  u64 root_ns_ = 0;
};

// RAII span on an optional log (nullptr = untraced: no clock reads).
class SpanScope {
 public:
  SpanScope(SpanLog* log, u32 name, u64 op) : log_(log) {
    if (log_ != nullptr) {
      log_->open(name, op, now_ns());
    }
  }
  ~SpanScope() {
    if (log_ != nullptr) {
      log_->close(now_ns());
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
};

// ---------------------------------------------------------------------------
// Self-validating kv values:
//   [u64 key hash][u64 write seq][payload][u32 crc32c of everything before]
// The payload is a pure function of (stream seed, key, seq), so a reply can
// be checked byte for byte against what the harness wrote at that seq.
std::vector<u8> make_value(u64 seed, std::string_view key, u64 seq, usize total_bytes);
// The seq the value carries when it is well-formed for `key` (length, key
// hash, crc and payload all check out); nullopt otherwise.
std::optional<u64> validate_value(u64 seed, std::string_view key, std::span<const u8> bytes,
                                  usize total_bytes);

// ---------------------------------------------------------------------------
// Seeded op streams. The program under test sees only what these generate.
enum class KvKind : u8 { kGet, kPut };

struct KvOp {
  KvKind kind = KvKind::kGet;
  u32 key = 0;

  bool operator==(const KvOp&) const = default;
};

struct KvMix {
  u32 keys = 0;
  u32 get_pct = 50;
  u32 hot_key_pct = 0;  // share of keys that is hot (0 = uniform)
  u32 hot_op_pct = 0;   // share of ops landing on the hot keys
};

class KvOpStream {
 public:
  KvOpStream(u64 seed, u64 client, const KvMix& mix);
  KvOp next();

 private:
  vnros::Rng rng_;
  KvMix mix_;
};

std::string kv_key(u32 index);

struct VmOp {
  u32 page = 0;   // index into the thread's window
  u64 frame = 0;  // frame number mapped there

  bool operator==(const VmOp&) const = default;
};

class VmOpStream {
 public:
  VmOpStream(u64 seed, u32 thread, u32 window_pages, u64 frame_range);
  VmOp next();

 private:
  vnros::Rng rng_;
  u32 window_;
  u64 frame_range_;
  u32 cursor_ = 0;
};

// ---------------------------------------------------------------------------
// Results and the run record.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// The metric tables. Every run reports every end-to-end metric (untraced)
// or every per-layer metric (traced), in this order, whatever the workload.
struct MetricSpec {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

struct RunResult;
// Orders `values` by the table. Every end-to-end metric must be measured; a
// per-layer metric of a layer the workload never calls reads 0. A name
// missing from the table is a harness bug and fails the run.
std::vector<Metric> end_to_end_metrics(const std::map<std::string, double>& values,
                                       RunResult& res);
std::vector<Metric> per_layer_metrics(const std::map<std::string, double>& values,
                                      RunResult& res);

// Combiner counters summed over every NR instance in the obs registry.
struct NrCounters {
  u64 combines = 0;
  u64 combined_ops = 0;
  u64 empty_combines = 0;
  u64 handoff_ops = 0;

  // Adds the growth from `before` to `after`.
  void add_delta(const NrCounters& before, const NrCounters& after);
};
NrCounters read_nr_counters();
// Per-layer nr.* values for counter growth `delta`.
void put_nr_metrics(const NrCounters& delta, std::map<std::string, double>& out);

struct RunResult {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> errors;  // first few correctness failures
  std::vector<Metric> metrics;      // end-to-end (untraced) or per-layer (traced)
  std::string params_json;          // workload parameters
  std::string samples_json;         // latency summaries with sample counts
  std::vector<std::string> report;  // human-readable lines

  void fail(std::string why);
};

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;   // where the record and the span dump go
  std::string run_name;  // their file name stem, unique per run
};

// Pins the calling thread to the index-th CPU it may run on (modulo their
// number). Migrating between CPUs mid-run was the largest source of
// run-to-run spread on a shared 4-vCPU host.
void pin_to_cpu(u32 index);

// Peak resident set of this process, MiB.
double peak_rss_mb();

double median(std::vector<double> v);
// printf into a std::string (report lines).
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string json_escape(std::string_view s);
std::string fmt_num(double v);
std::string summary_json(const LatencySummary& s);
// One report line: p50 and tail of `s` with the samples behind them.
std::string latency_line(const char* name, const LatencySummary& s);

// Writes every kept span of `logs` as one JSON object per line (log index,
// name, id, parent, op, start, end), so a trace can be inspected after the
// run. Returns false when the file cannot be written.
bool write_spans(const std::string& path, const std::vector<const SpanLog*>& logs);

// The per-layer table of a traced run: count, busy and self ns per op for
// each span name, then the residual against the phase's wall time.
std::vector<std::string> layer_table(const SpanLog& totals, u64 ops, u64 wall_ns);
// The same figures as a JSON object for the run record.
std::string layers_json(const SpanLog& totals, u64 ops, u64 wall_ns);

// Workload entry points (kv.cc, vm.cc).
RunResult run_kv(const Options& opt);
RunResult run_vm(const Options& opt);

// Self-test hook for the kv read-back and crash checks: preloads a small
// cluster, applies `damage` to key 0, runs the checks and returns what they
// reported (empty = all copies current).
enum class KvDamage { kNone, kLostAckedWrite, kDeletedCopy };
std::vector<std::string> kv_damage_probe(KvDamage damage, u64 seed);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
