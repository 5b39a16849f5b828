// perfbench: the repository benchmark's binary.
//
//   perfbench --workload sweep|service --seed N --seconds S --trace 0|1
//             --work-dir DIR [--tiny]
//
// Every run builds the fixture from the seed. With --trace 0 it repeats
// its workload's paths in rounds - `sweep` the batch sweep, `service`
// the in-process live session and the socket-fed server - and prints the
// end-to-end metrics. With --trace 1 it runs every path once untraced
// and once with spans around its calls into each src/ module, so that
// every layer is measured, prints the per-layer metrics and writes the
// set-up's and the workload's spans to DIR/trace-<workload>.json.
//
// The last line of stdout is one JSON object: correct, attempted,
// failed, metrics. A failed output check exits 1 with a one-line reason
// on stderr and prints no numbers; bad arguments exit 2; an invalid
// open-loop measurement exits 3.

#include <sys/resource.h>

#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"

namespace {

using namespace perfbench;
namespace core = cebis::core;

/// The largest share of a path's traced wall time that may go
/// unaccounted for by layer spans, benchmark spans and the recorder's
/// calibrated per-span cost. What remains is loop glue between spans:
/// the live path times calls a few hundred ns long one by one, where
/// a few percent is normal, so a larger gap means a call went untimed.
constexpr double kLedgerSlack = 0.10;

constexpr std::array<const char*, 3> kPaths = {"sweep", "live", "net"};

struct Args {
  std::string workload;
  std::uint64_t seed = 2009;
  int seconds = 0;
  bool trace = false;
  std::string work_dir;
  bool tiny = false;

  [[nodiscard]] bool batch() const { return workload == "sweep"; }
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload sweep|service "
               "--seed N --seconds S --trace 0|1 --work-dir DIR [--tiny]\n",
               why);
  return 2;
}

/// Base-10 unsigned integer, as bench_common.h's seed_from_args accepts
/// it (a sign or leading space is not part of one).
bool parse_u64(const char* text, std::uint64_t& out) {
  if (text[0] < '0' || text[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) return false;
  out = parsed;
  return true;
}

/// Returns 0 when `args` was filled, else the exit code.
int parse_args(int argc, char** argv, Args& args) {
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, args.seed)) {
        std::fprintf(stderr,
                     "invalid seed '%s': expected a base-10 unsigned integer\n",
                     value);
        return 2;
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, n) || n < 1 || n > 3600) {
        return usage("--seconds must be an integer in [1, 3600]");
      }
      args.seconds = static_cast<int>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!parse_u64(value, n) || n > 1) return usage("--trace must be 0 or 1");
      args.trace = n == 1;
      have_trace = true;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload != "sweep" && args.workload != "service") {
    return usage("--workload must be sweep or service");
  }
  if (!have_seed || !have_seconds || !have_trace || args.work_dir.empty()) {
    return usage("--seed, --seconds, --trace and --work-dir are required");
  }
  return 0;
}

/// A per-run temporary directory for event logs, removed on every exit
/// path that unwinds.
class RunDir {
 public:
  explicit RunDir(const std::string& parent) {
    std::filesystem::create_directories(parent);
    std::string pattern = parent + "/run-XXXXXX";
    if (mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("cannot create a run directory under " + parent +
                               ": " + std::strerror(errno));
    }
    path_ = pattern;
  }
  ~RunDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string one_line(std::string text) {
  for (char& c : text) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

std::string json(const Report& report) {
  std::string out = "{\"correct\": true, \"attempted\": " +
                    std::to_string(report.attempted) +
                    ", \"failed\": " + std::to_string(report.failed) +
                    ", \"metrics\": {";
  char value[64];
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (!std::isfinite(m.value)) {
      throw CheckFailed("metric " + m.name + " is not a finite number");
    }
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}}";
}

/// Fixture::make plus, when `sweep_windows`, every price window the
/// sweep's plan phase materializes: the set-up the system under test
/// needs before its first timed call. (The live and net paths' 5-minute
/// window is materialized by the benchmark's own feed synthesis, which
/// set-up leaves out.) Replaces `fixture` in place, so its address (which
/// the paths hold) stays; returns the wall time.
double set_up(const Args& args, bool sweep_windows,
              std::optional<core::Fixture>& fixture, SpanLog* log) {
  fixture.reset();
  const std::int64_t t0 = now_ns();
  {
    const Scope scope(log, "traffic.fixture_make");
    fixture.emplace(core::Fixture::make(args.seed));
  }
  if (sweep_windows) {
    for (const cebis::Period& window :
         sweep_price_windows(*fixture, args.tiny)) {
      const Scope scope(log, "market.materialize");
      (void)fixture->prices_covering(window, 1);
    }
  }
  return seconds_since(t0);
}

/// Runs one path, reporting its wall time on stderr.
template <typename F>
auto timed(const char* path, F&& run) {
  const std::int64_t t0 = now_ns();
  struct Note {
    const char* path;
    std::int64_t t0;
    ~Note() {
      std::fprintf(stderr, "perfbench: %s path took %.2f s\n", path,
                   seconds_since(t0));
    }
  } note{path, t0};
  return run();
}

/// Runs one unit of each of the workload's paths per round until the
/// run's seconds are spent. Every round after the first starts with a
/// fresh set-up, so the set-up samples in `setup_s` are spread over the
/// run like the paths' units: the host's speed drifts over tens of
/// seconds, and set-ups taken back to back would all see one moment.
void run_untraced(const Args& args, const Context& ctx,
                  std::optional<core::Fixture>& fixture,
                  std::vector<double>& setup_s, Report& report) {
  std::vector<std::unique_ptr<Measure>> measures;
  if (args.batch()) {
    measures.push_back(sweep_measure(ctx));
  } else {
    measures.push_back(live_measure(ctx));
    measures.push_back(net_measure(ctx));
  }
  const int min_rounds = args.tiny ? 1 : 3;
  int rounds = 0;
  const std::int64_t start = now_ns();
  while (rounds < min_rounds ||
         seconds_since(start) * (rounds + 1) / rounds <= args.seconds) {
    if (rounds > 0) {
      setup_s.push_back(set_up(args, args.batch(), fixture, nullptr));
      if (!args.batch()) {
        // The 5-minute prices the live and net paths read, materialized
        // again untimed, as their input synthesis first did.
        (void)make_feed(*fixture, session_period(ctx));
      }
    }
    for (const auto& measure : measures) measure->unit(report);
    ++rounds;
  }
  std::fprintf(stderr, "perfbench: %d rounds in %.2f s\n", rounds,
               seconds_since(start));
  for (const auto& measure : measures) measure->finish(report);
}

/// Runs the three traced passes (every layer gets its metrics, whatever
/// the workload), checks each path's ledger, and returns the spans the
/// trace file keeps: the set-up and the workload's paths.
std::vector<SpanRange> run_traced(const Args& args, const Context& ctx,
                                  Report& report) {
  const std::int64_t start = now_ns();
  const double recorder_ns = recorder_gap_ns();
  const TracedPath paths[] = {
      timed("sweep", [&] { return trace_sweep(ctx, report); }),
      timed("live", [&] { return trace_live(ctx, report); }),
      timed("net", [&] { return trace_net(ctx, report); })};
  const SpanLog& log = ctx.tracing->main();
  for (std::size_t i = 0; i < kPaths.size(); ++i) {
    const double gap = paths[i].ledger_gap(log, recorder_ns);
    std::fprintf(stderr,
                 "perfbench: %s ledger: %.1f ms wall, %zu spans, gap %.2f%%\n",
                 kPaths[i], static_cast<double>(paths[i].wall_ns) / 1e6,
                 paths[i].last - paths[i].first, 100.0 * gap);
    check(std::abs(gap) <= kLedgerSlack,
          std::string(kPaths[i]) + " ledger: spans leave " +
              std::to_string(100.0 * gap) + "% of the traced wall " +
              "unaccounted for, beyond the " +
              std::to_string(100.0 * kLedgerSlack) + "% slack");
  }
  // The live and net passes run back to back, so the service workload's
  // ledger is theirs joined.
  const TracedPath own = args.batch() ? paths[0] : paths[1].then(paths[2]);
  report.set("bench.trace_overhead", own.trace_overhead(), "ratio");
  report.set("bench.ledger_gap", own.ledger_gap(log, recorder_ns), "ratio");
  std::vector<SpanRange> kept = {{&log, 0, paths[0].first},
                                 {&log, own.first, own.last}};
  if (!args.batch()) {
    // Helper-thread logs (serve loops, subscribers) exist only in net.
    for (const SpanLog* helper : ctx.tracing->logs()) {
      if (helper != &log) kept.push_back({helper, 0, helper->size()});
    }
  }
  measure_metrics_overhead(ctx, args.seconds - seconds_since(start), report);
  return kept;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (const int code = parse_args(argc, argv, args); code != 0) return code;
  const char* workload = args.workload.c_str();
  try {
    const RunDir run_dir(args.work_dir);
    std::optional<Tracing> tracing;
    if (args.trace) tracing.emplace();
    SpanLog* setup_log = tracing ? &tracing->main() : nullptr;

    // The untraced run sets up again in each later round (one fixture
    // alive at a time); setup_s is the median. The traced run runs the
    // sweep whatever the workload.
    std::optional<core::Fixture> fixture;
    std::vector<double> setup_s = {
        set_up(args, args.trace || args.batch(), fixture, setup_log)};
    const Context ctx{&*fixture, run_dir.path(), args.tiny,
                      tracing ? &*tracing : nullptr};

    Report report;
    if (args.trace) {
      std::map<std::string, SpanStats> spans;
      collect_into(spans, tracing->main(), 0, tracing->main().size());
      report.set("traffic.fixture_make_ms",
                 median(spans["traffic.fixture_make"].self_ns) / 1e6, "ms");
      report.set("market.materialize_ms",
                 median(spans["market.materialize"].self_ns) / 1e6, "ms");
      const std::vector<SpanRange> kept = run_traced(args, ctx, report);
      const std::string trace_path =
          args.work_dir + "/trace-" + args.workload + ".json";
      if (!write_chrome_trace(trace_path, kept)) {
        throw std::runtime_error("cannot write " + trace_path);
      }
      std::fprintf(stderr, "perfbench: spans written to %s\n",
                   trace_path.c_str());
    } else {
      run_untraced(args, ctx, fixture, setup_s, report);
      report.set("setup_s", median(setup_s), "s");
      report.set("peak_rss_mb", peak_rss_mib(), "MiB");
    }
    const std::string line = json(report);
    std::printf("%s\n", line.c_str());
    return 0;
  } catch (const CheckFailed& e) {
    std::fprintf(stderr, "perfbench: %s: check failed: %s\n", workload,
                 one_line(e.what()).c_str());
  } catch (const InvalidRun& e) {
    std::fprintf(stderr, "perfbench: %s: invalid run: %s\n", workload,
                 one_line(e.what()).c_str());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: error: %s\n", workload,
                 one_line(e.what()).c_str());
  }
  return 1;
}
