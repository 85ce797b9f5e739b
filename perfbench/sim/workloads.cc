#include "sim/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/apps/faas.h"
#include "src/apps/miniredis.h"
#include "src/base/rng.h"
#include "src/baseline/system.h"
#include "src/guest/guest.h"

namespace perfbench {
namespace {

using namespace ufork;  // NOLINT: the benchmark is a client of the whole simulator API

// GOT slot for the fork_churn arena (after MiniRedis's and the zygote's slots).
constexpr int kGotSlotArena = kGotSlotFirstUser + 2;

// --- shared helpers -----------------------------------------------------------------------------

class Fnv {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

double ExpSample(Rng& rng, double mean) { return -std::log(1.0 - rng.NextDouble()) * mean; }

// Inverse CDF of a Pareto(alpha) truncated to [lo, hi], at quantile u in [0, 1).
uint64_t BoundedPareto(double u, double alpha, uint64_t lo, uint64_t hi) {
  const double la = std::pow(static_cast<double>(lo), alpha);
  const double ha = std::pow(static_cast<double>(hi), alpha);
  return static_cast<uint64_t>(std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha));
}

// Fills `out` with a value whose every 8-byte word derives from `word` (cheap to generate,
// distinct per SET, checkable).
void FillValue(std::vector<std::byte>& out, uint64_t word) {
  for (size_t i = 0; i + 8 <= out.size(); i += 8) {
    const uint64_t w = word + i;
    std::memcpy(out.data() + i, &w, 8);
  }
}

// Identifies the calling simulated thread to the tracer (spans nest per thread).
const void* ThreadKey(Guest& g) { return &g.kernel().sched().Current(); }

// Counters read at the start and the end of the timed phase; the layer metrics use deltas.
std::map<std::string, uint64_t> ReadCounters(Kernel& k) {
  const KernelStats& s = k.stats();
  const FrameAllocator& frames = k.machine().frames();
  return {
      {"kernel.syscalls", s.syscalls},
      {"kernel.forks", s.forks},
      {"kernel.faults_taken", s.faults_taken},
      {"kernel.fault_cycles", s.fault_cycles},
      {"kernel.admission_rejected", s.admission_rejected},
      {"kernel.admission_parked", s.admission_parked},
      {"kernel.faults_contained", s.faults_contained},
      {"ufork.pages_copied_on_fault", s.pages_copied_on_fault},
      {"ufork.caps_relocated_on_fault", s.caps_relocated_on_fault},
      {"ufork.caps_stripped", s.caps_stripped},
      {"machine.cow_faults", k.machine().cow_faults()},
      {"machine.cap_load_faults", k.machine().cap_load_faults()},
      {"mem.frame_allocs", frames.total_allocations()},
      {"sched.context_switches", k.sched().context_switches()},
      {"sched.slices", k.sched().slices_executed()},
  };
}

// State shared by the guest programs of one round and the host code that boots and checks it.
struct Round {
  explicit Round(Tracer& t) : tracer(t) {}

  Tracer& tracer;
  RoundResult result;
  int64_t t_begin = 0;
  int64_t t_go = 0;
  int64_t t_end = 0;
  Cycles v_go = 0;
  uint64_t frames_mark = 0;
  uint64_t free_frames_min = ~0ULL;
  uint64_t fork_errors = 0;
  std::map<std::string, uint64_t> at_go;

  void Fail(std::string what) { result.check_failures.push_back(std::move(what)); }

  void SampleFrames(Kernel& k) {
    free_frames_min = std::min(free_frames_min, k.machine().frames().free_frames());
  }

  // Marks the start of the timed phase (called from guest code, at the go barrier).
  void Go(Kernel& k) {
    at_go = ReadCounters(k);
    SampleFrames(k);
    v_go = k.sched().Now();
    t_go = HostNowNs();
  }

  // Marks the end of the timed phase; records counter deltas and frame/fault maxima.
  void End(Kernel& k) {
    t_end = HostNowNs();
    result.v.phase_cycles = k.sched().Now() - v_go;
    for (const auto& [name, value] : ReadCounters(k)) {
      result.v.counters[name] = value - at_go[name];
    }
    result.v.counters["kernel.parked_wait_cycles_max"] = k.stats().parked_wait_cycles_max;
    result.v.counters["mem.frames_peak"] = k.machine().frames().peak_frames();
    result.v.counters["mem.free_frames_min"] = free_frames_min;
    result.v.counters["kernel.fork_errors"] = fork_errors;
  }

  // Records the fork statistics of a freshly forked child.
  void RecordFork(Kernel& k, Pid child) {
    Uproc* proc = k.FindUproc(child);
    if (proc == nullptr) {
      Fail("fork stats unavailable for a child");
      return;
    }
    result.v.fork_latency.push_back(proc->fork_stats.latency);
    result.v.counters["ufork.pages_mapped"] += proc->fork_stats.pages_mapped;
    result.v.counters["ufork.pages_copied_eagerly"] += proc->fork_stats.pages_copied_eagerly;
  }

  // Records one finished operation.
  void RecordOp(Cycles latency, bool ok, Cycles limit) {
    ++result.v.attempted;
    if (ok) {
      ++result.v.ok;
      result.v.op_latency.push_back(latency);
      if (latency <= limit) {
        ++result.v.good;
      }
    }
  }

  // Boots the kernel and runs `main_fn` as its first μprocess to completion, then applies the
  // kernel-wide output checks (off the clock).
  void Run(const KernelConfig& config, GuestFn main_fn) {
    t_begin = HostNowNs();
    std::unique_ptr<Kernel> kernel;
    {
      ScopedSpan boot(tracer, "kernel.boot", 0, nullptr);
      kernel = MakeUforkKernel(config);
      auto pid = kernel->Spawn(MakeGuestEntry(std::move(main_fn)), "perfbench-main");
      if (!pid.ok()) {
        Fail("spawn of the benchmark main failed");
        return;
      }
    }
    result.boot_s = static_cast<double>(HostNowNs() - t_begin) / 1e9;
    {
      ScopedSpan run(tracer, "sched.run", 0, nullptr);
      kernel->Run();
    }
    if (t_go == 0 || t_end == 0) {
      Fail("the timed phase never ran");
      return;
    }
    result.setup_s = static_cast<double>(t_go - t_begin) / 1e9;
    result.timed_s = static_cast<double>(t_end - t_go) / 1e9;

    const KernelStats& s = kernel->stats();
    if (s.faults_taken + s.pages_resolved_by_faultaround !=
        s.pages_copied_on_fault + s.pages_reclaimed_in_place) {
      Fail("page accounting: faults_taken + faultaround != copied + reclaimed");
    }
    uint64_t per_syscall = 0;
    for (const StatCounter& c : s.per_syscall) {
      per_syscall += c;
    }
    if (per_syscall != s.syscalls) {
      Fail("sum of per_syscall != syscalls");
    }
    if (s.faults_contained != 0) {
      Fail("faults_contained != 0");
    }
    if (!kernel->LivePids().empty()) {
      Fail("live uprocs left behind");
    }
    if (!kernel->CheckFrameAccounting().ok()) {
      Fail("frame accounting mismatch");
    }
  }

  // Output check: frames return to the count marked before the phase once everything the
  // phase created is gone.
  void MarkFrames(Kernel& k) { frames_mark = k.machine().frames().frames_in_use(); }
  void CheckFramesReturned(Kernel& k) {
    if (k.machine().frames().frames_in_use() != frames_mark) {
      Fail("frames_in_use did not return to its pre-phase value (" +
           std::to_string(frames_mark) + " -> " +
           std::to_string(k.machine().frames().frames_in_use()) + ")");
    }
  }

  void Finish() {
    if (tracer.enabled()) {
      result.spans = tracer.spans();
      result.self_ns = SelfTimes(result.spans);
      tracer.Clear();
    }
  }
};

// Bulk guest store inside a machine.store span; counts the bytes for the per-KiB metric.
bool BulkStore(Round& round, Guest& g, const Capability& cap, uint64_t va,
               std::span<const std::byte> bytes, uint64_t request) {
  ScopedSpan span(round.tracer, "machine.store", request, ThreadKey(g));
  round.result.v.counters["machine.store_bytes"] += bytes.size();
  return g.WriteBytes(cap, va, bytes).ok();
}

// Blocks on a one-byte pipe read (barrier step).
SimTask<bool> ReadByte(Guest& g, int fd, const Capability& buf) {
  auto n = co_await g.Read(fd, buf, 1);
  co_return n.ok() && *n == 1;
}

SimTask<bool> WriteByte(Guest& g, int fd, const Capability& buf) {
  auto n = co_await g.Write(fd, buf, 1);
  co_return n.ok() && *n == 1;
}

// ================================================================================================
// redis_bgsave — closed loop. One Redis μprocess (136.7 MB static heap) holds a DB of 100 KB
// entries; an in-guest client loop issues SETs (most overwriting live keys) and starts a
// background save every kRedisSetsPerSave SETs while it keeps writing. A reaper thread collects the
// save children. An op is a SET.
// ================================================================================================

constexpr uint64_t kRedisEntryBytes = 100 * 1024;  // values are 100 KB +- kRedisEntryJitter
constexpr uint64_t kRedisEntryJitter = 4 * 1024;
constexpr uint64_t kRedisPreload = 8;
constexpr uint64_t kRedisSets = 30000;
constexpr uint64_t kRedisSetsPerSave = 300;
// Every kRedisSetsPerNewKey-th SET adds a key; all others overwrite a live key picked by the
// seed. The DB (and so every dump) grows on the same schedule for every seed: the dumps stay
// in the ramdisk until the off-clock verification, so their size sets the process's RSS.
constexpr uint64_t kRedisSetsPerNewKey = 1500;
// Client connections, each with a query buffer mapped at connect time; every value is read
// into its client's buffer (bulk guest stores) before the SET.
constexpr uint64_t kRedisMaxClients = 8;
// The client's gap between a reply and its next SET. The server blocks in it (as it would in
// its event loop), which is when the save children get the host.
constexpr Cycles kRedisThinkTime = Microseconds(10);
constexpr Cycles kRedisSetLimit = Microseconds(50);

struct RedisSetInput {
  uint64_t key = 0;
  uint64_t word = 0;
  uint64_t size = 0;
};

class RedisBgsave final : public Workload {
 public:
  explicit RedisBgsave(uint64_t seed) {
    Rng rng(seed);
    clients_ = 1 + rng.NextU64() % kRedisMaxClients;
    auto size = [&rng] {
      return kRedisEntryBytes - kRedisEntryJitter + 8 * (rng.NextU64() % (kRedisEntryJitter / 4));
    };
    uint64_t keys = 0;
    for (; keys < kRedisPreload; ++keys) {
      sets_.push_back(RedisSetInput{keys, rng.NextU64(), size()});
    }
    for (uint64_t i = 0; i < kRedisSets; ++i) {
      RedisSetInput in;
      in.key = (i + 1) % kRedisSetsPerNewKey == 0 ? keys++ : rng.NextU64() % keys;
      in.word = rng.NextU64();
      in.size = size();
      sets_.push_back(in);
    }
  }

  const char* name() const override { return "redis_bgsave"; }
  Cycles latency_limit() const override { return kRedisSetLimit; }

  uint64_t InputDigest() const override {
    Fnv h;
    h.Add(clients_);
    for (const RedisSetInput& in : sets_) {
      h.Add(in.key);
      h.Add(in.word);
      h.Add(in.size);
    }
    return h.value();
  }

  RoundResult RunRound(Tracer& tracer) override {
    Round round(tracer);
    KernelConfig config;
    config.layout.heap_size = static_cast<uint64_t>(136.7 * static_cast<double>(kMiB));
    config.layout.stack_size = 256 * kKiB;
    config.phys_mem_bytes = 2 * kGiB;
    round.Run(config, [this, &round](Guest& g) -> SimTask<void> { co_await Main(g, round); });
    round.Finish();
    return std::move(round.result);
  }

 private:
  struct Save {
    Pid pid = kInvalidPid;
    Cycles trigger = 0;
    uint64_t entries = 0;  // DB size at fork
    std::string path;
  };

  static std::string Key(uint64_t k) { return "key:" + std::to_string(k); }

  SimTask<void> Main(Guest& g, Round& round) {
    Kernel& k = g.kernel();
    Tracer& tr = round.tracer;
    auto db = MiniRedis::Create(g, /*buckets=*/4096);
    if (!db.ok()) {
      round.Fail("redis create failed");
      co_return;
    }
    // Connect the clients: one query buffer each, mapped anonymously.
    std::vector<Capability> query_bufs;
    for (uint64_t c = 0; c < clients_; ++c) {
      ScopedSpan span(tr, "kernel.sys.mmap_anon", 0, ThreadKey(g));
      auto buf = co_await g.MmapAnon(kRedisEntryBytes + kRedisEntryJitter);
      if (!buf.ok()) {
        round.Fail("client query buffer mmap failed");
        co_return;
      }
      query_bufs.push_back(*buf);
    }
    // One SET: the value arrives in its client's query buffer (bulk guest stores), then the
    // store copies it into the DB.
    std::vector<std::byte> value;
    auto set = [&](uint64_t i) {
      const RedisSetInput& in = sets_[i];
      value.resize(in.size);
      FillValue(value, in.word);
      const Capability& buf = query_bufs[i % query_bufs.size()];
      if (!BulkStore(round, g, buf, buf.base(), value, i)) {
        return false;
      }
      ScopedSpan span(tr, "apps.redis_set", i, ThreadKey(g));
      return db->Set(Key(in.key), value).ok();
    };
    for (uint64_t i = 0; i < kRedisPreload; ++i) {
      if (!set(i)) {
        round.Fail("redis preload SET failed");
        co_return;
      }
    }

    std::vector<Save> saves;
    std::unordered_map<Pid, Cycles> done_at;
    uint64_t inflight = 0;
    bool generating = true;
    GuestFn reaper_fn = [&round, &inflight, &generating](Guest& rg) -> SimTask<void> {
      while (generating || inflight > 0) {
        auto waited = co_await rg.Wait();
        if (!waited.ok()) {
          co_await rg.Nanosleep(Microseconds(100));
          continue;
        }
        --inflight;
        if (waited->status != 0) {
          ++round.result.failed_ops;  // a save child failed
        }
      }
    };
    auto reaper = co_await g.ThreadCreate(std::move(reaper_fn));
    if (!reaper.ok()) {
      round.Fail("reaper thread create failed");
      co_return;
    }

    round.MarkFrames(k);
    round.Go(k);
    for (uint64_t i = kRedisPreload; i < sets_.size(); ++i) {
      const Cycles t0 = k.sched().Now();
      const bool ok = set(i);
      round.RecordOp(k.sched().Now() - t0, ok, kRedisSetLimit);
      if (!ok) {
        ++round.result.failed_ops;
      }
      round.SampleFrames(k);
      co_await g.Nanosleep(kRedisThinkTime);
      if ((i + 1 - kRedisPreload) % kRedisSetsPerSave != 0) {
        continue;
      }
      Save save;
      save.trigger = k.sched().Now();
      save.path = "/dump-" + std::to_string(saves.size()) + ".rdb";
      auto size = db->DbSize();
      save.entries = size.ok() ? *size : 0;
      const uint64_t request_id = i;
      GuestFn child_fn = [&round, &done_at, path = save.path,
                          request_id](Guest& cg) -> SimTask<void> {
        auto child_db = MiniRedis::Attach(cg);
        if (!child_db.ok()) {
          co_await cg.Exit(1);
          co_return;
        }
        Result<uint64_t> written{Error{Code::kErrInval, "unsaved"}};
        {
          ScopedSpan span(round.tracer, "apps.redis_save", request_id, ThreadKey(cg));
          written = co_await child_db->Save(path + ".tmp");
        }
        bool renamed = false;
        if (written.ok()) {
          ScopedSpan span(round.tracer, "kernel.sys.rename", request_id, ThreadKey(cg));
          renamed = (co_await cg.Rename(path + ".tmp", path)).ok();
        }
        done_at[cg.pid()] = cg.kernel().sched().Now();
        co_await cg.Exit(renamed ? 0 : 1);
      };
      Result<Pid> child{Error{Code::kErrAgain, "unforked"}};
      {
        ScopedSpan span(tr, "ufork.fork", i, ThreadKey(g));
        child = co_await g.Fork(std::move(child_fn));
      }
      if (!child.ok()) {
        ++round.fork_errors;
        ++round.result.failed_ops;
        continue;
      }
      round.RecordFork(k, *child);
      save.pid = *child;
      ++inflight;
      saves.push_back(std::move(save));
    }
    generating = false;
    while (inflight > 0) {
      co_await g.Nanosleep(Microseconds(200));
    }
    (void)co_await g.ThreadJoin(*reaper);
    round.End(k);

    // Off the clock: every dump verifies and holds the DB size at its fork.
    for (const Save& save : saves) {
      auto it = done_at.find(save.pid);
      if (it == done_at.end()) {
        ++round.result.failed_ops;
        continue;
      }
      round.result.v.save_latency.push_back(it->second - save.trigger);
      auto info = co_await db->VerifyDump(save.path);
      if (!info.ok() || info->entries != save.entries) {
        ++round.result.failed_ops;
      }
      (void)co_await g.Unlink(save.path);
    }
    round.CheckFramesReturned(k);
  }

  uint64_t clients_ = 1;
  std::vector<RedisSetInput> sets_;  // the first kRedisPreload populate the DB
};

// ================================================================================================
// fork_churn — closed loop. Four root μprocs, one per simulated core, each fork a hello-image
// child, wait for it, and repeat. Half the children write a few anonymous pages, half only
// read the root's arena (inherited through the relocated GOT) and check what they read. An op
// is a fork; its latency is the fork -> reap round trip.
// ================================================================================================

constexpr int kChurnRoots = 4;
constexpr uint64_t kChurnForksPerRoot = 2500;
constexpr uint64_t kChurnArenaPages = 64;
constexpr uint64_t kChurnMaxPages = 8;
// Each root also holds a seeded number of anonymously mapped pages of its own (its working
// set beyond the static image), which every fork of it must map.
constexpr uint64_t kChurnMaxStatePages = 8;
constexpr Cycles kChurnLimit = Microseconds(100);

struct ChurnInput {
  bool writer = false;
  uint64_t pages = 1;   // pages written (writer) or read (reader)
  uint64_t first = 0;   // first arena page read (reader)
};

class ForkChurn final : public Workload {
 public:
  explicit ForkChurn(uint64_t seed) {
    Rng rng(seed);
    for (uint64_t p = 0; p < kChurnArenaPages; ++p) {
      arena_words_.push_back(rng.NextU64());
    }
    for (int r = 0; r < kChurnRoots; ++r) {
      state_pages_.push_back(1 + rng.NextU64() % kChurnMaxStatePages);
    }
    inputs_.resize(kChurnRoots);
    for (auto& root : inputs_) {
      for (uint64_t j = 0; j < kChurnForksPerRoot; ++j) {
        ChurnInput in;
        in.writer = (rng.NextU64() & 1) != 0;
        in.pages = 1 + rng.NextU64() % kChurnMaxPages;
        in.first = rng.NextU64() % kChurnArenaPages;
        root.push_back(in);
      }
    }
  }

  const char* name() const override { return "fork_churn"; }
  Cycles latency_limit() const override { return kChurnLimit; }

  uint64_t InputDigest() const override {
    Fnv h;
    for (uint64_t w : arena_words_) {
      h.Add(w);
    }
    for (uint64_t pages : state_pages_) {
      h.Add(pages);
    }
    for (const auto& root : inputs_) {
      for (const ChurnInput& in : root) {
        h.Add(in.writer);
        h.Add(in.pages);
        h.Add(in.first);
      }
    }
    return h.value();
  }

  RoundResult RunRound(Tracer& tracer) override {
    Round round(tracer);
    KernelConfig config;
    config.layout.text_size = 128 * kKiB;  // the hello-world image of Fig. 8
    config.layout.rodata_size = 16 * kKiB;
    config.layout.got_size = 16 * kKiB;
    config.layout.data_size = 16 * kKiB;
    config.layout.heap_size = 1 * kMiB;
    config.layout.stack_size = 128 * kKiB;
    config.layout.tls_size = 4 * kKiB;
    config.layout.mmap_size = 64 * kKiB;
    config.cores = kChurnRoots;
    round.Run(config, [this, &round](Guest& g) -> SimTask<void> { co_await Main(g, round); });
    round.Finish();
    return std::move(round.result);
  }

 private:
  SimTask<void> Main(Guest& g, Round& round) {
    Kernel& k = g.kernel();
    auto ready = co_await g.Pipe();
    auto go = co_await g.Pipe();
    auto byte = g.Malloc(16);
    if (!ready.ok() || !go.ok() || !byte.ok()) {
      round.Fail("fork_churn main setup failed");
      co_return;
    }
    const int ready_w = ready->second;
    const int go_r = go->first;
    for (int r = 0; r < kChurnRoots; ++r) {
      GuestFn root_fn = [this, &round, r, ready_w, go_r](Guest& rg) -> SimTask<void> {
        co_await Root(rg, round, r, ready_w, go_r);
      };
      g.SetChildAffinity(r);
      if (!(co_await g.Fork(std::move(root_fn))).ok()) {
        round.Fail("root fork failed");
        co_return;
      }
    }
    g.SetChildAffinity(-1);
    for (int r = 0; r < kChurnRoots; ++r) {
      if (!co_await ReadByte(g, ready->first, *byte)) {
        round.Fail("root never became ready");
      }
    }
    round.MarkFrames(k);
    round.Go(k);
    for (int r = 0; r < kChurnRoots; ++r) {
      (void)co_await WriteByte(g, go->second, *byte);
    }
    for (int r = 0; r < kChurnRoots; ++r) {
      if (!co_await ReadByte(g, ready->first, *byte)) {
        round.Fail("a root failed to finish its loop");
      }
    }
    round.End(k);
    // Off the clock: every child is gone, the roots are parked; then release the roots.
    round.CheckFramesReturned(k);
    for (int r = 0; r < kChurnRoots; ++r) {
      (void)co_await WriteByte(g, go->second, *byte);
    }
    for (int r = 0; r < kChurnRoots; ++r) {
      auto waited = co_await g.Wait();
      if (!waited.ok() || waited->status != 0) {
        round.Fail("a fork_churn root failed");
      }
    }
  }

  SimTask<void> Root(Guest& g, Round& round, int r, int ready_w, int go_r) {
    Kernel& k = g.kernel();
    Tracer& tr = round.tracer;
    // Populate: a seeded arena, one page per store, published through the GOT.
    Result<Capability> arena{Error{Code::kErrNoMem, "unallocated"}};
    {
      ScopedSpan span(tr, "guest.malloc", 0, ThreadKey(g));
      arena = g.Malloc(kChurnArenaPages * kPageSize);
    }
    if (!arena.ok() || !g.GotStore(kGotSlotArena, *arena).ok()) {
      round.Fail("arena setup failed");
      co_await g.Exit(1);
    }
    std::vector<std::byte> page(kPageSize);
    for (uint64_t p = 0; p < kChurnArenaPages; ++p) {
      FillValue(page, arena_words_[p]);
      if (!BulkStore(round, g, *arena, arena->base() + p * kPageSize, page, p)) {
        round.Fail("arena store failed");
      }
    }
    const uint64_t state_pages = state_pages_[static_cast<size_t>(r)];
    Result<Capability> state{Error{Code::kErrNoMem, "unmapped"}};
    {
      ScopedSpan span(tr, "kernel.sys.mmap_anon", 0, ThreadKey(g));
      state = co_await g.MmapAnon(state_pages * kPageSize);
    }
    for (uint64_t p = 0; state.ok() && p < state_pages; ++p) {
      FillValue(page, arena_words_[p] ^ 0x5a5a);
      if (!BulkStore(round, g, *state, state->base() + p * kPageSize, page, p)) {
        round.Fail("state store failed");
      }
    }
    if (!state.ok()) {
      round.Fail("state mmap failed");
    }
    auto byte = g.Malloc(16);
    if (!byte.ok() || !co_await WriteByte(g, ready_w, *byte) ||
        !co_await ReadByte(g, go_r, *byte)) {
      round.Fail("root barrier failed");
      co_await g.Exit(1);
    }

    const std::vector<ChurnInput>& inputs = inputs_[static_cast<size_t>(r)];
    for (uint64_t j = 0; j < inputs.size(); ++j) {
      const ChurnInput in = inputs[j];
      const uint64_t request = static_cast<uint64_t>(r) * 1'000'000 + j;
      GuestFn child_fn = [this, &round, in, request](Guest& cg) -> SimTask<void> {
        int code = 0;
        if (in.writer) {
          Result<Capability> buf{Error{Code::kErrNoMem, "unmapped"}};
          {
            ScopedSpan span(round.tracer, "kernel.sys.mmap_anon", request, ThreadKey(cg));
            buf = co_await cg.MmapAnon(in.pages * kPageSize);
          }
          for (uint64_t p = 0; buf.ok() && code == 0 && p < in.pages; ++p) {
            if (!cg.Store<uint64_t>(*buf, buf->base() + p * kPageSize, request + p).ok()) {
              code = 1;
            }
          }
          code = buf.ok() ? code : 1;
        } else {
          auto arena_cap = cg.GotLoad(kGotSlotArena);
          for (uint64_t p = 0; arena_cap.ok() && code == 0 && p < in.pages; ++p) {
            const uint64_t page_no = (in.first + p) % kChurnArenaPages;
            auto word = cg.LoadAt<uint64_t>(*arena_cap, page_no * kPageSize);
            if (!word.ok() || *word != arena_words_[page_no]) {  // FillValue's first word
              code = 1;
            }
          }
          code = arena_cap.ok() ? code : 1;
        }
        co_await cg.Exit(code);
      };
      const Cycles t0 = k.sched().Now();
      Result<Pid> child{Error{Code::kErrAgain, "unforked"}};
      {
        ScopedSpan span(tr, "ufork.fork", request, ThreadKey(g));
        child = co_await g.Fork(std::move(child_fn));
      }
      if (!child.ok()) {
        ++round.fork_errors;
        ++round.result.failed_ops;
        round.RecordOp(0, false, kChurnLimit);
        continue;
      }
      round.RecordFork(k, *child);
      auto waited = co_await g.Wait();
      const bool ok = waited.ok() && waited->pid == *child && waited->status == 0;
      if (!ok) {
        ++round.result.failed_ops;
      }
      round.RecordOp(k.sched().Now() - t0, ok, kChurnLimit);
      round.SampleFrames(k);
    }
    (void)co_await WriteByte(g, ready_w, *byte);  // loop done
    (void)co_await ReadByte(g, go_r, *byte);      // released after the frame check
    co_await g.Exit(0);
  }

  std::vector<uint64_t> arena_words_;
  std::vector<uint64_t> state_pages_;
  std::vector<std::vector<ChurnInput>> inputs_;
};

// ================================================================================================
// fleet_overload — open loop. The three-tenant fleet (FaaS zygote, httpd fork-per-connection,
// Redis with BGSAVE) on 4 simulated cores and 32 MiB, admission armed, at 2x the saturation
// rates, with seeded Poisson arrivals and bounded-Pareto request sizes. An op is a
// fork-per-request request (a FaaS invocation or an httpd connection); its latency runs from
// its due time, and a refused fork counts as attempted and not ok. The Redis tenant's inline
// SETs and BGSAVE forks are background load: their forks count in the fork statistics and
// every dump is verified, but the SETs are not ops (their latency is the coordinator's lag,
// a second mode that would put the fleet's median on the boundary between two populations).
// ================================================================================================

constexpr TenantId kTenantFaas = 1;
constexpr TenantId kTenantHttpd = 2;
constexpr TenantId kTenantRedis = 3;
constexpr double kFleetRateMultiplier = 2.0;
constexpr Cycles kFleetWindow = Milliseconds(200);
// Independent overload windows per round. A window opens once the previous one has drained;
// pooling them steadies the medians, which a single window's backlog makes seed-sensitive.
constexpr int kFleetWindows = 4;
constexpr double kSatFaasRate = 6000.0;
constexpr double kSatHttpdRate = 3000.0;
constexpr double kSatRedisRate = 8000.0;
constexpr uint64_t kFleetOpsPerSnapshot = 64;
constexpr uint64_t kRedisKeySpace = 256;
constexpr double kLowFraction = 0.35;
constexpr double kCriticalFraction = 0.10;
constexpr double kClearFraction = 0.45;
constexpr double kTenantCapFraction = 0.80;
constexpr Cycles kFleetLimit = Milliseconds(150);
// Each tenant's warm state beyond its static image: a seeded number of anonymously mapped
// pages that every fork of the tenant maps (httpd children still have room for their
// response buffers in the mmap zone).
constexpr uint64_t kFleetMaxStatePages = 32;

struct Arrival {
  int window = 0;
  Cycles due = 0;     // offset from the start of its window
  uint64_t size = 0;  // executor iterations / response bytes / value bytes
  uint64_t key = 0;   // redis only
};

class FleetOverload final : public Workload {
 public:
  explicit FleetOverload(uint64_t seed) {
    const double rates[3] = {kSatFaasRate, kSatHttpdRate, kSatRedisRate};
    for (int s = 0; s < 3; ++s) {
      Rng arrivals(seed * 1000003 + static_cast<uint64_t>(s) + 1);
      Rng payload((seed * 1000003 + static_cast<uint64_t>(s) + 1) ^ 0x9e3779b97f4a7c15ULL);
      const double mean_gap_s = 1.0 / (rates[s] * kFleetRateMultiplier);
      for (int w = 0; w < kFleetWindows; ++w) {
        for (double due_s = ExpSample(arrivals, mean_gap_s);;
             due_s += ExpSample(arrivals, mean_gap_s)) {
          Arrival a;
          a.window = w;
          a.due = static_cast<Cycles>(due_s * static_cast<double>(kCyclesPerSecond));
          if (a.due >= kFleetWindow) {
            break;
          }
          if (s == 0) {
            a.size = BoundedPareto(payload.NextDouble(), 1.3, 2'000, 60'000);
          } else if (s == 1) {
            a.size = BoundedPareto(payload.NextDouble(), 1.2, 4 * kKiB, 64 * kKiB);
          } else {
            a.key = payload.NextU64() % kRedisKeySpace;
            a.size = BoundedPareto(payload.NextDouble(), 1.2, 64, 4 * kKiB);
          }
          arrivals_[s].push_back(a);
        }
      }
    }
    Rng preload(seed ^ 0xc0ffee);
    for (uint64_t& pages : state_pages_) {
      pages = 4 + preload.NextU64() % (kFleetMaxStatePages - 3);
    }
    for (uint64_t i = 0; i < kRedisKeySpace; ++i) {
      preload_sizes_.push_back(BoundedPareto(preload.NextDouble(), 1.2, 64, 4 * kKiB));
    }
  }

  const char* name() const override { return "fleet_overload"; }
  Cycles latency_limit() const override { return kFleetLimit; }

  uint64_t InputDigest() const override {
    Fnv h;
    for (const auto& service : arrivals_) {
      for (const Arrival& a : service) {
        h.Add(static_cast<uint64_t>(a.window));
        h.Add(a.due);
        h.Add(a.size);
        h.Add(a.key);
      }
    }
    for (uint64_t size : preload_sizes_) {
      h.Add(size);
    }
    for (uint64_t pages : state_pages_) {
      h.Add(pages);
    }
    return h.value();
  }

  RoundResult RunRound(Tracer& tracer) override {
    Round round(tracer);
    KernelConfig config;
    config.layout.text_size = 64 * kKiB;
    config.layout.rodata_size = 16 * kKiB;
    config.layout.got_size = 16 * kKiB;
    config.layout.data_size = 16 * kKiB;
    config.layout.heap_size = 2 * kMiB;
    config.layout.stack_size = 64 * kKiB;
    config.layout.tls_size = 4 * kKiB;
    config.layout.mmap_size = 256 * kKiB;
    config.cores = 4;
    config.phys_mem_bytes = 32 * kMiB;
    round.Run(config, [this, &round](Guest& g) -> SimTask<void> { co_await Main(g, round); });
    round.Finish();
    return std::move(round.result);
  }

 private:
  // Per-service bookkeeping of the in-simulation load generator (host-side ledger).
  struct Service {
    TenantId tenant = 0;
    const std::vector<Arrival>* arrivals = nullptr;
    std::unordered_map<Pid, Cycles> due_of;  // request child -> absolute due time
    std::unordered_map<Pid, uint64_t> save_entries;  // BGSAVE child -> DB size at fork
    std::vector<std::pair<std::string, Pid>> dumps;  // published dump -> BGSAVE child
    uint64_t state_pages = 0;
    uint64_t inflight = 0;
    bool generating = true;
    int go_r = -1;
    int go_w = -1;
  };

  SimTask<void> Main(Guest& g, Round& round) {
    Kernel& k = g.kernel();
    auto ready = co_await g.Pipe();
    auto byte = g.Malloc(16);
    if (!ready.ok() || !byte.ok()) {
      round.Fail("fleet main setup failed");
      co_return;
    }
    Service services[3];
    const TenantId tenants[3] = {kTenantFaas, kTenantHttpd, kTenantRedis};
    for (int s = 0; s < 3; ++s) {
      services[s].state_pages = state_pages_[s];
      auto go = co_await g.Pipe();
      if (!go.ok()) {
        round.Fail("fleet go pipe failed");
        co_return;
      }
      services[s].tenant = tenants[s];
      services[s].arrivals = &arrivals_[s];
      services[s].go_r = go->first;
      services[s].go_w = go->second;
    }
    const int ready_w = ready->second;
    round.MarkFrames(k);
    for (Service& svc : services) {
      GuestFn service_fn = [this, &round, &svc, ready_w](Guest& sg) -> SimTask<void> {
        co_await RunService(sg, round, svc, ready_w);
      };
      if (!(co_await g.Fork(std::move(service_fn))).ok()) {
        round.Fail("fleet service fork failed");
        co_return;
      }
    }
    auto barrier = [&](const char* what) -> SimTask<void> {
      for (int i = 0; i < 3; ++i) {
        if (!co_await ReadByte(g, ready->first, *byte)) {
          round.Fail(what);
        }
      }
    };
    co_await barrier("a fleet service never became ready");

    FrameAllocator& frames = k.machine().frames();
    const uint64_t free0 = frames.free_frames();
    OverloadConfig oc;
    oc.enabled = true;
    oc.low_watermark = static_cast<uint64_t>(static_cast<double>(free0) * kLowFraction);
    oc.critical_watermark = static_cast<uint64_t>(static_cast<double>(free0) * kCriticalFraction);
    oc.clear_watermark = static_cast<uint64_t>(static_cast<double>(free0) * kClearFraction);
    oc.max_parked = 0;  // open loop: shed with EAGAIN, never stall the generator
    k.admission().Configure(oc);
    const auto cap = static_cast<uint64_t>(static_cast<double>(free0) * kTenantCapFraction);
    for (TenantId t : tenants) {
      frames.SetTenantCap(t, cap);
    }

    round.Go(k);
    for (Service& svc : services) {
      (void)co_await WriteByte(g, svc.go_w, *byte);
    }
    co_await barrier("a fleet service failed to finish its window");
    round.End(k);
    if (round.result.v.counters["fleet.crashed"] != 0) {
      round.Fail("fleet_overload: a request child crashed");
    }
    // Off the clock: the Redis tenant verifies and unlinks its dumps, then all exit.
    for (Service& svc : services) {
      (void)co_await WriteByte(g, svc.go_w, *byte);
    }
    for (int i = 0; i < 3; ++i) {
      auto waited = co_await g.Wait();
      if (!waited.ok() || waited->status != 0) {
        round.Fail("a fleet service died");
      }
    }
    round.CheckFramesReturned(k);
  }

  // Reaper thread: harvests children, stamps request latencies from their due time, checks
  // every exit status (a status >= 128 is an uncontained crash).
  static GuestFn MakeReaper(Round& round, Service& svc) {
    return [&round, &svc](Guest& rg) -> SimTask<void> {
      Scheduler& sched = rg.kernel().sched();
      while (svc.generating || svc.inflight > 0) {
        auto waited = co_await rg.Wait();
        if (!waited.ok()) {
          co_await rg.Nanosleep(Microseconds(100));
          continue;
        }
        --svc.inflight;
        round.SampleFrames(rg.kernel());
        const bool ok = waited->status == 0;
        if (waited->status >= 128) {
          ++round.result.v.counters["fleet.crashed"];
        }
        if (!ok) {
          ++round.result.failed_ops;
        }
        if (auto it = svc.due_of.find(waited->pid); it != svc.due_of.end()) {
          round.RecordOp(sched.Now() - it->second, ok, kFleetLimit);
          svc.due_of.erase(it);
        } else if (auto save = svc.save_entries.find(waited->pid);
                   save != svc.save_entries.end()) {
          save->second = ok ? save->second : ~0ULL;
        }
      }
    };
  }

  SimTask<void> RunService(Guest& g, Round& round, Service& svc, int ready_w) {
    Kernel& k = g.kernel();
    Scheduler& sched = k.sched();
    Tracer& tr = round.tracer;
    g.SetTenant(svc.tenant);
    std::optional<MiniRedis> db;
    Result<Capability> byte{Error{Code::kErrNoMem, "unallocated"}};
    {
      ScopedSpan span(tr, "guest.malloc", 0, ThreadKey(g));
      byte = g.Malloc(16);
    }
    if (!byte.ok()) {
      round.Fail("fleet service malloc failed");
      co_await g.Exit(1);
    }
    Result<Capability> state{Error{Code::kErrNoMem, "unmapped"}};
    {
      ScopedSpan span(tr, "kernel.sys.mmap_anon", 0, ThreadKey(g));
      state = co_await g.MmapAnon(svc.state_pages * kPageSize);
    }
    std::vector<std::byte> page(kPageSize);
    for (uint64_t p = 0; state.ok() && p < svc.state_pages; ++p) {
      FillValue(page, p + 1);
      if (!BulkStore(round, g, *state, state->base() + p * kPageSize, page, p)) {
        round.Fail("fleet state store failed");
      }
    }
    if (!state.ok()) {
      round.Fail("fleet state mmap failed");
    }
    if (svc.tenant == kTenantFaas && !InitializeZygoteRuntime(g).ok()) {
      round.Fail("zygote init failed");
      co_await g.Exit(1);
    }
    if (svc.tenant == kTenantRedis) {
      auto created = MiniRedis::Create(g, /*buckets=*/64);
      auto request = g.Malloc(4 * kKiB);
      if (!created.ok() || !request.ok()) {
        round.Fail("fleet redis create failed");
        co_await g.Exit(1);
      }
      db.emplace(std::move(*created));
      for (uint64_t i = 0; i < kRedisKeySpace; ++i) {
        std::vector<std::byte> value(preload_sizes_[i], std::byte{static_cast<uint8_t>(i)});
        (void)BulkStore(round, g, *request, request->base(), value, i);
        ScopedSpan span(tr, "apps.redis_set", i, ThreadKey(g));
        if (!db->Set("key-" + std::to_string(i), value).ok()) {
          round.Fail("fleet redis preload failed");
        }
      }
    }
    GuestFn reaper_fn = MakeReaper(round, svc);
    auto reaper = co_await g.ThreadCreate(std::move(reaper_fn));
    if (!reaper.ok() || !co_await WriteByte(g, ready_w, *byte) ||
        !co_await ReadByte(g, svc.go_r, *byte)) {
      round.Fail("fleet service barrier failed");
      co_await g.Exit(1);
    }

    Cycles start = sched.Now();
    int window = 0;
    const uint64_t base_request = static_cast<uint64_t>(svc.tenant) * 1'000'000;
    uint64_t sets = 0;
    for (uint64_t i = 0; i < svc.arrivals->size(); ++i) {
      const Arrival a = (*svc.arrivals)[i];
      const uint64_t request = base_request + i;
      if (a.window != window) {  // the next window opens once this service has drained
        while (svc.inflight > 0) {
          co_await g.Nanosleep(Microseconds(200));
        }
        start = sched.Now();
        window = a.window;
      }
      const Cycles now = sched.Now() - start;
      if (now < a.due) {
        co_await g.Nanosleep(a.due - now);
      }
      const Cycles due = start + a.due;
      round.result.v.late.push_back(sched.Now() - due);
      if (svc.tenant == kTenantRedis) {
        std::vector<std::byte> value(a.size, std::byte{static_cast<uint8_t>(a.key)});
        bool ok = false;
        {
          ScopedSpan span(tr, "apps.redis_set", request, ThreadKey(g));
          ok = db->Set("key-" + std::to_string(a.key), value).ok();
        }
        if (!ok || ++sets % kFleetOpsPerSnapshot != 0) {
          continue;
        }
        const std::string path = "/fleet/redis-" + std::to_string(sets) + ".rdb";
        Result<Pid> child{Error{Code::kErrAgain, "unforked"}};
        {
          // BgSave is a thin wrapper: the span's self time is the fork.
          ScopedSpan span(tr, "ufork.fork", request, ThreadKey(g));
          child = co_await db->BgSave(path);
        }
        if (!child.ok()) {
          ++round.fork_errors;
          continue;  // admission refusal: the snapshot is skipped, not failed
        }
        round.RecordFork(k, *child);
        auto size = db->DbSize();
        svc.save_entries[*child] = size.ok() ? *size : 0;
        svc.dumps.emplace_back(path, *child);
        ++svc.inflight;
        continue;
      }
      Result<Pid> child{Error{Code::kErrAgain, "unforked"}};
      {
        ScopedSpan span(tr, "ufork.fork", request, ThreadKey(g));
        if (svc.tenant == kTenantFaas) {
          child = co_await LaunchFaas(g, round, a, request);
        } else {
          child = co_await LaunchHttpd(g, round, a, request);
        }
      }
      if (!child.ok()) {
        ++round.fork_errors;
        round.RecordOp(0, false, kFleetLimit);  // refused: attempted, not ok
        continue;
      }
      round.RecordFork(k, *child);
      svc.due_of[*child] = due;
      ++svc.inflight;
    }
    svc.generating = false;
    while (svc.inflight > 0) {
      co_await g.Nanosleep(Microseconds(200));
    }
    (void)co_await g.ThreadJoin(*reaper);
    // End of the window; verification waits for the go byte so it runs off the clock.
    (void)co_await WriteByte(g, ready_w, *byte);
    (void)co_await ReadByte(g, svc.go_r, *byte);
    if (db.has_value()) {
      for (const auto& [path, pid] : svc.dumps) {
        const uint64_t entries = svc.save_entries[pid];
        if (entries == ~0ULL) {
          continue;  // the child failed; already counted
        }
        auto info = co_await db->VerifyDump(path);
        if (!info.ok() || info->entries != entries) {
          ++round.result.failed_ops;
        }
        (void)co_await g.Unlink(path);
      }
    }
    co_await g.Exit(0);
  }

  static SimTask<Result<Pid>> LaunchFaas(Guest& g, Round& round, Arrival a, uint64_t request) {
    const uint64_t iters = a.size;
    return g.Fork([&round, iters, request](Guest& cg) -> SimTask<void> {
      const Cycles t0 = cg.kernel().sched().Now();
      Result<double> value{Error{Code::kErrInval, "unrun"}};
      {
        ScopedSpan span(round.tracer, "apps.faas_exec", request, ThreadKey(cg));
        value = FloatOperation(cg, iters);
      }
      if (!value.ok()) {
        co_await cg.RaiseFault(value.error());
        co_return;
      }
      round.result.v.faas_exec.push_back(cg.kernel().sched().Now() - t0);
      co_await cg.Exit(0);
    });
  }

  static SimTask<Result<Pid>> LaunchHttpd(Guest& g, Round& round, Arrival a, uint64_t request) {
    const uint64_t resp = a.size;
    return g.Fork([&round, resp, request](Guest& cg) -> SimTask<void> {
      const uint64_t pages = (resp + kPageSize - 1) / kPageSize;
      Result<Capability> buf{Error{Code::kErrNoMem, "unmapped"}};
      {
        ScopedSpan span(round.tracer, "kernel.sys.mmap_anon", request, ThreadKey(cg));
        buf = co_await cg.MmapAnon(pages * kPageSize);
      }
      if (!buf.ok()) {
        co_await cg.RaiseFault(buf.error());
        co_return;
      }
      for (uint64_t p = 0; p < pages; ++p) {
        auto stored = cg.Store<uint64_t>(*buf, buf->base() + p * kPageSize, p + 1);
        if (!stored.ok()) {
          co_await cg.RaiseFault(stored.error());
          co_return;
        }
      }
      cg.Compute(resp * 4);  // checksum + TLS record framing
      co_await cg.Exit(0);
    });
  }

  std::vector<Arrival> arrivals_[3];
  std::vector<uint64_t> preload_sizes_;
  uint64_t state_pages_[3] = {};
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "redis_bgsave") {
    return std::make_unique<RedisBgsave>(seed);
  }
  if (name == "fork_churn") {
    return std::make_unique<ForkChurn>(seed);
  }
  if (name == "fleet_overload") {
    return std::make_unique<FleetOverload>(seed);
  }
  return nullptr;
}

}  // namespace perfbench
