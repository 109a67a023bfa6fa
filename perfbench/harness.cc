#include "harness.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdarg>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "src/base/crc.h"
#include "src/obs/registry.h"

namespace perfbench {

// --- LatencyHistogram --------------------------------------------------------

namespace {
constexpr u32 kFirstLogExp = 11;  // 2048 = 2 * kSub: first log-bucketed power
}  // namespace

LatencyHistogram::LatencyHistogram()
    : buckets_(2 * kSub + (kMaxExp - kFirstLogExp + 1) * kSub, 0) {}

usize LatencyHistogram::bucket_of(u64 ns) {
  if (ns < 2 * kSub) {
    return static_cast<usize>(ns);
  }
  ns = std::min<u64>(ns, (u64{1} << (kMaxExp + 1)) - 1);
  const u32 e = static_cast<u32>(std::bit_width(ns)) - 1;
  const u64 sub = (ns >> (e - kSubBits)) - kSub;
  return static_cast<usize>(2 * kSub + (e - kFirstLogExp) * kSub + sub);
}

u64 LatencyHistogram::bucket_low(usize b) {
  if (b < 2 * kSub) {
    return b;
  }
  const u64 k = b - 2 * kSub;
  const u64 e = kFirstLogExp + k / kSub;
  return (kSub + k % kSub) << (e - kSubBits);
}

u64 LatencyHistogram::bucket_width(usize b) {
  if (b < 2 * kSub) {
    return 1;
  }
  const u64 e = kFirstLogExp + (b - 2 * kSub) / kSub;
  return u64{1} << (e - kSubBits);
}

void LatencyHistogram::record(u64 ns) {
  ++buckets_[bucket_of(ns)];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (usize i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

void LatencyHistogram::clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
  u64 before = 0;
  usize last = 0;
  for (usize b = 0; b < buckets_.size(); ++b) {
    const u64 c = buckets_[b];
    if (c == 0) {
      continue;
    }
    last = b;
    if (pos < static_cast<double>(before + c)) {
      const double frac = (pos - static_cast<double>(before)) / static_cast<double>(c);
      return static_cast<double>(bucket_low(b)) + frac * static_cast<double>(bucket_width(b));
    }
    before += c;
  }
  return static_cast<double>(bucket_low(last) + bucket_width(last));
}

std::optional<double> tail_percentile(u64 samples) {
  // In hundredths of a percent, so the rank arithmetic is exact.
  static constexpr u64 kBasisPoints[] = {9999, 9990, 9900, 9500, 9000, 7500, 5000};
  for (u64 bp : kBasisPoints) {
    const u64 at = (bp * samples + 9999) / 10000;  // ceil: rank of the percentile
    if (samples - at >= 10) {
      return static_cast<double>(bp) / 100.0;
    }
  }
  return std::nullopt;
}

LatencySummary summarize(const LatencyHistogram& h) {
  LatencySummary s;
  s.samples = h.count();
  s.window_samples_min = s.samples;
  s.p50_us = h.quantile(0.5) / 1000.0;
  auto rule = tail_percentile(s.samples);
  s.rule_pct = rule.value_or(0);
  s.rule_us = rule ? h.quantile(*rule / 100.0) / 1000.0 : 0;
  s.tail_pct = rule ? std::min(99.0, *rule) : 0;
  s.p99_us = rule ? h.quantile(s.tail_pct / 100.0) / 1000.0 : 0;
  return s;
}

void WindowedLatency::close_window(LatencyHistogram& h) {
  if (h.count() == 0) {
    return;
  }
  windows_.push_back(summarize(h));
  pooled_.merge(h);
  h.clear();
}

LatencySummary WindowedLatency::summary() const {
  LatencySummary s = summarize(pooled_);
  if (windows_.empty()) {
    return s;
  }
  auto median_of = [&](double LatencySummary::*field) {
    std::vector<double> v;
    for (const LatencySummary& w : windows_) {
      v.push_back(w.*field);
    }
    std::sort(v.begin(), v.end());
    const usize n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  };
  double tail_pct = windows_.front().tail_pct;
  s.window_samples_min = windows_.front().samples;
  for (const LatencySummary& w : windows_) {
    tail_pct = std::min(tail_pct, w.tail_pct);
    s.window_samples_min = std::min(s.window_samples_min, w.samples);
  }
  s.windows = windows_.size();
  s.p50_us = median_of(&LatencySummary::p50_us);
  // Windows too small for the pooled tail percentile: the tail comes from
  // the pooled histogram instead (p50 stays a median over windows).
  if (tail_pct >= s.tail_pct) {
    s.p99_us = median_of(&LatencySummary::p99_us);
  }
  return s;
}

// --- SpanLog -----------------------------------------------------------------

SpanLog::SpanLog(std::vector<std::string> names, usize keep)
    : names_(std::move(names)), keep_(keep), totals_(names_.size()) {
  kept_.reserve(std::min<usize>(keep_, 1 << 16));
}

void SpanLog::open(u32 name, u64 op, u64 t_ns) {
  Span s;
  s.name = name;
  s.id = next_id_++;
  s.parent = stack_.empty() ? 0 : stack_.back().id;
  s.op = op;
  s.start_ns = t_ns;
  stack_.push_back(s);
}

void SpanLog::close(u64 t_ns) {
  Span s = stack_.back();
  stack_.pop_back();
  s.end_ns = t_ns;
  const u64 dur = s.end_ns - s.start_ns;
  LayerTotals& t = totals_[s.name];
  ++t.count;
  t.busy_ns += dur;
  t.self_ns += dur - std::min(dur, s.child_ns);
  if (stack_.empty()) {
    root_ns_ += dur;
  } else {
    stack_.back().child_ns += dur;
  }
  if (kept_.size() < keep_) {
    kept_.push_back(s);
  } else {
    ++dropped_;
  }
}

void SpanLog::merge(const SpanLog& other) {
  for (usize i = 0; i < totals_.size() && i < other.totals_.size(); ++i) {
    totals_[i].count += other.totals_[i].count;
    totals_[i].busy_ns += other.totals_[i].busy_ns;
    totals_[i].self_ns += other.totals_[i].self_ns;
  }
  root_ns_ += other.root_ns_;
  dropped_ += other.dropped_ + other.kept_.size();
}

bool write_spans(const std::string& path, const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  for (usize l = 0; l < logs.size(); ++l) {
    const SpanLog& log = *logs[l];
    for (const Span& s : log.kept()) {
      out << "{\"log\":" << l << ",\"name\":\"" << log.names()[s.name] << "\",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"op\":" << s.op << ",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }
  return static_cast<bool>(out);
}

std::vector<std::string> layer_table(const SpanLog& totals, u64 ops, u64 wall_ns) {
  std::vector<std::string> lines;
  const double per = ops == 0 ? 0 : 1.0 / static_cast<double>(ops);
  char buf[256];
  std::snprintf(buf, sizeof buf, "  %-24s %12s %14s %14s", "layer", "count", "busy_ns/op",
                "self_ns/op");
  lines.emplace_back(buf);
  double self_sum = 0;
  for (usize i = 0; i < totals.names().size(); ++i) {
    const LayerTotals& t = totals.totals()[i];
    self_sum += static_cast<double>(t.self_ns) * per;
    std::snprintf(buf, sizeof buf, "  %-24s %12llu %14.1f %14.1f", totals.names()[i].c_str(),
                  static_cast<unsigned long long>(t.count),
                  static_cast<double>(t.busy_ns) * per, static_cast<double>(t.self_ns) * per);
    lines.emplace_back(buf);
  }
  const double wall = static_cast<double>(wall_ns) * per;
  const double residual = wall - static_cast<double>(totals.root_ns()) * per;
  std::snprintf(buf, sizeof buf, "  %-24s %12s %14s %14.1f", "residual", "", "", residual);
  lines.emplace_back(buf);
  std::snprintf(buf, sizeof buf, "  %-24s %12llu %14s %14.1f  (self sum + residual = %.1f)",
                "wall per op", static_cast<unsigned long long>(ops), "", wall,
                self_sum + residual);
  lines.emplace_back(buf);
  return lines;
}

std::string layers_json(const SpanLog& totals, u64 ops, u64 wall_ns) {
  const double per = ops == 0 ? 0 : 1.0 / static_cast<double>(ops);
  std::string out = "{";
  for (usize i = 0; i < totals.names().size(); ++i) {
    const LayerTotals& t = totals.totals()[i];
    out += "\"" + totals.names()[i] + "\":{\"count\":" + std::to_string(t.count) +
           ",\"busy_ns_per_op\":" + fmt_num(static_cast<double>(t.busy_ns) * per) +
           ",\"self_ns_per_op\":" + fmt_num(static_cast<double>(t.self_ns) * per) + "},";
  }
  return out + "\"residual_ns_per_op\":" +
         fmt_num((static_cast<double>(wall_ns) - static_cast<double>(totals.root_ns())) * per) +
         ",\"wall_ns_per_op\":" + fmt_num(static_cast<double>(wall_ns) * per) + "}";
}

// --- kv values ---------------------------------------------------------------

namespace {

constexpr usize kValueOverhead = 8 + 8 + 4;  // key hash, seq, crc

u64 key_hash(std::string_view key) {
  u64 h = 0xCBF29CE484222325ull;  // FNV-1a
  for (char c : key) {
    h = (h ^ static_cast<u8>(c)) * 0x100000001B3ull;
  }
  return h;
}

void put_u64(u8* p, u64 v) { std::memcpy(p, &v, 8); }
u64 get_u64(const u8* p) {
  u64 v = 0;
  std::memcpy(&v, p, 8);
  return v;
}

void fill_payload(u64 seed, u64 khash, u64 seq, std::span<u8> out) {
  vnros::Rng rng(seed ^ khash ^ (seq * 0x9E3779B97F4A7C15ull));
  usize i = 0;
  while (i < out.size()) {
    const u64 w = rng.next_u64();
    const usize n = std::min<usize>(8, out.size() - i);
    std::memcpy(out.data() + i, &w, n);
    i += n;
  }
}

}  // namespace

std::vector<u8> make_value(u64 seed, std::string_view key, u64 seq, usize total_bytes) {
  std::vector<u8> v(std::max(total_bytes, kValueOverhead));
  const u64 kh = key_hash(key);
  put_u64(v.data(), kh);
  put_u64(v.data() + 8, seq);
  fill_payload(seed, kh, seq, std::span<u8>(v.data() + 16, v.size() - kValueOverhead));
  const u32 crc = vnros::crc32c(std::span<const u8>(v.data(), v.size() - 4));
  std::memcpy(v.data() + v.size() - 4, &crc, 4);
  return v;
}

std::optional<u64> validate_value(u64 seed, std::string_view key, std::span<const u8> bytes,
                                  usize total_bytes) {
  if (bytes.size() != std::max(total_bytes, kValueOverhead)) {
    return std::nullopt;
  }
  const u64 kh = key_hash(key);
  if (get_u64(bytes.data()) != kh) {
    return std::nullopt;
  }
  u32 crc = 0;
  std::memcpy(&crc, bytes.data() + bytes.size() - 4, 4);
  if (vnros::crc32c(bytes.first(bytes.size() - 4)) != crc) {
    return std::nullopt;
  }
  const u64 seq = get_u64(bytes.data() + 8);
  std::vector<u8> want(bytes.size() - kValueOverhead);
  fill_payload(seed, kh, seq, want);
  if (!std::equal(want.begin(), want.end(), bytes.begin() + 16)) {
    return std::nullopt;
  }
  return seq;
}

// --- op streams --------------------------------------------------------------

KvOpStream::KvOpStream(u64 seed, u64 client, const KvMix& mix)
    : rng_(seed * 0x2545F4914F6CDD1Dull + client * 0x9E3779B97F4A7C15ull + 1), mix_(mix) {}

KvOp KvOpStream::next() {
  KvOp op;
  op.kind = rng_.next_below(100) < mix_.get_pct ? KvKind::kGet : KvKind::kPut;
  const u32 hot = std::max<u32>(1, mix_.keys * mix_.hot_key_pct / 100);
  if (mix_.hot_key_pct == 0 || hot >= mix_.keys) {
    op.key = static_cast<u32>(rng_.next_below(mix_.keys));
  } else if (rng_.next_below(100) < mix_.hot_op_pct) {
    op.key = static_cast<u32>(rng_.next_below(hot));
  } else {
    op.key = hot + static_cast<u32>(rng_.next_below(mix_.keys - hot));
  }
  return op;
}

std::string kv_key(u32 index) {
  std::string key = "k";
  key += std::to_string(index);
  return key;
}

VmOpStream::VmOpStream(u64 seed, u32 thread, u32 window_pages, u64 frame_range)
    : rng_(seed * 0xD1B54A32D192ED03ull + thread + 7), window_(window_pages),
      frame_range_(frame_range) {}

VmOp VmOpStream::next() {
  VmOp op;
  op.page = cursor_;
  cursor_ = (cursor_ + 1) % window_;
  op.frame = rng_.next_below(frame_range_);
  return op;
}

// --- results -----------------------------------------------------------------

void RunResult::fail(std::string why) {
  correct = false;
  if (errors.size() < 8) {
    errors.push_back(std::move(why));
  }
}

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},         {"ops_per_s", "1/s"},      {"read_p50_us", "us"},
    {"read_p99_us", "us"},    {"write_p50_us", "us"},    {"write_p99_us", "us"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"app.serve_once.useful_frac", "ratio"},
    {"app.replicas_pushed_per_put", "ratio"},
    {"app.stale_ignored", "count"},
    {"app.virtual_ticks_per_op_p50", "ticks"},
    {"net.vtp.retransmits", "count"},
    {"hw.nic.rx_dropped_full", "count"},
    {"hw.net.frames_lost", "count"},
    {"kernel.ring.submitted_per_op", "ratio"},
    {"kernel.ring.sq_full", "count"},
    {"kernel.fs.fsyncs_per_put", "ratio"},
    {"kernel.fs.journal_bytes_per_user_byte", "ratio"},
    {"kernel.fs.checkpoints", "count"},
    {"hw.disk.writes_per_put", "ratio"},
    {"hw.disk.flushes_per_put", "ratio"},
    {"hw.disk.bytes_written_per_user_byte", "ratio"},
    {"nr.combined_ops_per_combine", "ratio"},
    {"nr.combines", "count"},
    {"nr.empty_combines", "count"},
    {"nr.handoff_ops", "count"},
    {"hw.tlb.ipis_per_unmap", "ratio"},
    {"residual_ns_per_op", "ns"},
    {"obs.trace_overhead_frac", "ratio"},
};

namespace {

std::vector<Metric> order_metrics(const std::vector<MetricSpec>& table,
                                  const std::map<std::string, double>& values,
                                  bool all_required, RunResult& res) {
  std::vector<Metric> out;
  for (const MetricSpec& m : table) {
    auto it = values.find(m.name);
    if (it == values.end() && all_required) {
      res.fail(std::string("metric not measured: ") + m.name);
    }
    out.push_back(Metric{m.name, it == values.end() ? 0.0 : it->second, m.unit});
  }
  for (const auto& [name, value] : values) {
    const bool listed = std::any_of(table.begin(), table.end(),
                                    [&](const MetricSpec& m) { return name == m.name; });
    if (!listed) {
      res.fail("metric not in the table: " + name);
    }
  }
  return out;
}

}  // namespace

std::vector<Metric> end_to_end_metrics(const std::map<std::string, double>& values,
                                       RunResult& res) {
  return order_metrics(kEndToEnd, values, /*all_required=*/true, res);
}

std::vector<Metric> per_layer_metrics(const std::map<std::string, double>& values,
                                      RunResult& res) {
  return order_metrics(kPerLayer, values, /*all_required=*/false, res);
}

NrCounters read_nr_counters() {
  NrCounters c;
  auto ends_with = [](const std::string& s, std::string_view suffix) {
    return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(),
                                                  suffix) == 0;
  };
  for (const auto& [name, value] : vnros::ObsRegistry::global().counters_snapshot()) {
    if (name.rfind("nr", 0) != 0) {
      continue;
    }
    if (ends_with(name, "/combines")) {
      c.combines += value;
    } else if (ends_with(name, "/combined_ops")) {
      c.combined_ops += value;
    } else if (ends_with(name, "/empty_combines")) {
      c.empty_combines += value;
    } else if (ends_with(name, "/handoff_ops")) {
      c.handoff_ops += value;
    }
  }
  return c;
}

void NrCounters::add_delta(const NrCounters& before, const NrCounters& after) {
  combines += after.combines - before.combines;
  combined_ops += after.combined_ops - before.combined_ops;
  empty_combines += after.empty_combines - before.empty_combines;
  handoff_ops += after.handoff_ops - before.handoff_ops;
}

void put_nr_metrics(const NrCounters& delta, std::map<std::string, double>& out) {
  const double combines = static_cast<double>(delta.combines);
  out["nr.combines"] = combines;
  out["nr.combined_ops_per_combine"] =
      combines == 0 ? 0 : static_cast<double>(delta.combined_ops) / combines;
  out["nr.empty_combines"] = static_cast<double>(delta.empty_combines);
  out["nr.handoff_ops"] = static_cast<double>(delta.handoff_ops);
}

void pin_to_cpu(u32 index) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0 || CPU_COUNT(&allowed) == 0) {
    return;
  }
  int want = static_cast<int>(index % static_cast<u32>(CPU_COUNT(&allowed)));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed) && want-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_setaffinity_np(pthread_self(), sizeof one, &one);
      return;
    }
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

std::string format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string fmt_num(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string summary_json(const LatencySummary& s) {
  return "{\"samples\":" + std::to_string(s.samples) + ",\"windows\":" +
         std::to_string(s.windows) + ",\"window_samples_min\":" +
         std::to_string(s.window_samples_min) + ",\"p50_us\":" + fmt_num(s.p50_us) +
         ",\"p99_us\":" + fmt_num(s.p99_us) + ",\"p99_is_pct\":" + fmt_num(s.tail_pct) +
         ",\"rule_pct\":" + fmt_num(s.rule_pct) + ",\"rule_us\":" + fmt_num(s.rule_us) + "}";
}

std::string latency_line(const char* name, const LatencySummary& s) {
  return format("  %-9s p50 %10.3f us   p%g %10.3f us   (%llu samples; medians over %llu windows "
                "of >= %llu)",
                name, s.p50_us, s.tail_pct, s.p99_us, static_cast<unsigned long long>(s.samples),
                static_cast<unsigned long long>(s.windows),
                static_cast<unsigned long long>(s.window_samples_min));
}

}  // namespace perfbench
