// perfbench_sim: runs one perfbench workload in this (single-threaded) host process and
// prints one JSON document with the raw results; perfbench/run.py turns it into metrics.
//
//   perfbench_sim --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// The workload's inputs are generated from the seed, then identical rounds run until the
// timed phases add up to S host seconds (at least two rounds). Every round must reproduce the
// first round's virtual-time results bit-identically; the second seed (N+1) must generate
// different inputs. With --trace 1, rounds alternate untraced/traced so the tracing overhead
// is measured in the same process; the spans of the last traced round go to FILE.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sim/trace.h"
#include "sim/workloads.h"

namespace perfbench {
namespace {

// Once two rounds have run, start no round that would end past this wall time.
constexpr double kMaxWallSeconds = 120.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

void Array(std::ostream& out, const std::vector<Cycles>& values) {
  out << '[';
  for (size_t i = 0; i < values.size(); ++i) {
    out << (i == 0 ? "" : ",") << values[i];
  }
  out << ']';
}

void Array(std::ostream& out, const std::vector<int64_t>& values) {
  out << '[';
  for (size_t i = 0; i < values.size(); ++i) {
    out << (i == 0 ? "" : ",") << values[i];
  }
  out << ']';
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_sim --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
  }
  auto workload = MakeWorkload(args.workload, args.seed);
  auto other = MakeWorkload(args.workload, args.seed + 1);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const bool inputs_differ = workload->InputDigest() != other->InputDigest();
  other.reset();

  const int64_t wall_start = HostNowNs();
  Tracer tracer;
  std::vector<RoundResult> rounds;
  std::vector<bool> traced;
  std::map<std::string, std::vector<int64_t>> self_ns;  // traced spans' self time, by name
  std::vector<Span> last_trace;
  double timed_total = 0;
  bool any_traced = false;
  bool deterministic = true;
  for (;;) {
    const bool trace_round = args.trace && rounds.size() % 2 == 1;
    tracer.set_enabled(trace_round);
    const int64_t round_start = HostNowNs();
    RoundResult r = workload->RunRound(tracer);
    const double round_wall = static_cast<double>(HostNowNs() - round_start) / 1e9;
    if (!rounds.empty() && !(r.v == rounds.front().v)) {
      deterministic = false;
    }
    if (trace_round) {
      any_traced = true;
      for (size_t i = 0; i < r.spans.size(); ++i) {
        self_ns[r.spans[i].name].push_back(r.self_ns[i]);
      }
      last_trace = std::move(r.spans);
      r.spans.clear();
      r.self_ns.clear();
    }
    timed_total += r.timed_s;
    if (!rounds.empty()) {
      r.v = {};  // compared above; only the first round's samples are reported
    }
    rounds.push_back(std::move(r));
    traced.push_back(trace_round);
    const double elapsed = static_cast<double>(HostNowNs() - wall_start) / 1e9;
    const bool enough = timed_total >= args.seconds && rounds.size() >= 2 &&
                        (!args.trace || any_traced);
    if (enough || (rounds.size() >= 2 && elapsed + round_wall > kMaxWallSeconds)) {
      break;
    }
  }

  if (args.trace && !args.trace_out.empty() && !WriteChromeTrace(last_trace, args.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    return 1;
  }

  // --- report ---------------------------------------------------------------------------------
  const RoundResult& first = rounds.front();
  std::set<std::string> failures;
  uint64_t failed_ops = 0;
  for (const RoundResult& r : rounds) {
    failures.insert(r.check_failures.begin(), r.check_failures.end());
    failed_ops += r.failed_ops;
  }
  std::ostringstream out;
  out.precision(17);
  out << "{\"workload\":\"" << workload->name() << "\",\"seed\":" << args.seed
      << ",\"cycles_per_second\":" << ufork::kCyclesPerSecond
      << ",\"latency_limit_cycles\":" << workload->latency_limit()
      << ",\"inputs_differ\":" << (inputs_differ ? "true" : "false")
      << ",\"deterministic\":" << (deterministic ? "true" : "false")
      << ",\"rss_mb\":" << PeakRssMb() << ",\"failed_ops\":" << failed_ops
      << ",\"check_failures\":[";
  bool comma = false;
  for (const std::string& f : failures) {
    out << (comma ? "," : "") << '"' << f << '"';
    comma = true;
  }
  out << "],\"rounds\":[";
  for (size_t i = 0; i < rounds.size(); ++i) {
    const RoundResult& r = rounds[i];
    out << (i == 0 ? "" : ",") << "{\"setup_s\":" << r.setup_s << ",\"boot_s\":" << r.boot_s
        << ",\"timed_s\":" << r.timed_s << ",\"traced\":" << (traced[i] ? "true" : "false")
        << '}';
  }
  const VirtualResult& v = first.v;
  out << "],\"virtual\":{\"phase_cycles\":" << v.phase_cycles << ",\"attempted\":" << v.attempted
      << ",\"ok\":" << v.ok << ",\"good\":" << v.good << ",\"fork_latency\":";
  Array(out, v.fork_latency);
  out << ",\"op_latency\":";
  Array(out, v.op_latency);
  out << ",\"save_latency\":";
  Array(out, v.save_latency);
  out << ",\"late\":";
  Array(out, v.late);
  out << ",\"faas_exec\":";
  Array(out, v.faas_exec);
  out << ",\"counters\":{";
  comma = false;
  for (const auto& [name, value] : v.counters) {
    out << (comma ? "," : "") << '"' << name << "\":" << value;
    comma = true;
  }
  out << "}},\"self_ns\":{";
  comma = false;
  for (const auto& [name, samples] : self_ns) {
    out << (comma ? "," : "") << '"' << name << "\":";
    Array(out, samples);
    comma = true;
  }
  out << "}}\n";
  std::fputs(out.str().c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
