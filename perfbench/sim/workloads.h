// The three perfbench workloads over the public simulator API (MakeUforkKernel / Kernel,
// Guest, MiniRedis, the FaaS runtime). Inputs are generated on the host from the seed before
// the kernel boots; the guest programs only consume them.
#ifndef PERFBENCH_SIM_WORKLOADS_H_
#define PERFBENCH_SIM_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/trace.h"
#include "src/base/units.h"

namespace perfbench {

using ufork::Cycles;

// Everything a round produces in virtual time. A pure function of (workload, seed): every
// round of a run must reproduce it bit-identically, traced or not.
struct VirtualResult {
  std::vector<Cycles> fork_latency;  // Uproc::fork_stats.latency of every fork
  std::vector<Cycles> op_latency;    // per-operation latency (see each workload)
  std::vector<Cycles> save_latency;  // BGSAVE trigger -> reaped dump (redis_bgsave)
  std::vector<Cycles> late;          // open-loop generator lateness per arrival
  std::vector<Cycles> faas_exec;     // FaaS executor float_operation duration
  Cycles phase_cycles = 0;           // virtual length of the timed phase
  uint64_t attempted = 0;            // operations attempted
  uint64_t ok = 0;                   // operations completed without error
  uint64_t good = 0;                 // ok and within the workload's latency limit
  std::map<std::string, uint64_t> counters;  // layer counters over the timed phase

  bool operator==(const VirtualResult&) const = default;
};

// Host-side outcome of one round.
struct RoundResult {
  VirtualResult v;
  double setup_s = 0;  // kernel construction -> start of the timed phase
  double boot_s = 0;   // kernel construction + first Spawn
  double timed_s = 0;  // timed phase (host wall clock)
  uint64_t failed_ops = 0;  // operations whose output check failed (incl. save children)
  std::vector<std::string> check_failures;  // run-level output checks that failed
  std::vector<Span> spans;                  // traced rounds only
  std::vector<int64_t> self_ns;             // self time per span, index-aligned
};

// One workload: inputs built once from the seed, then any number of identical rounds.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  virtual Cycles latency_limit() const = 0;
  // Digest of the generated inputs (the determinism check compares two seeds).
  virtual uint64_t InputDigest() const = 0;
  virtual RoundResult RunRound(Tracer& tracer) = 0;
};

// nullptr for an unknown workload name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SIM_WORKLOADS_H_
