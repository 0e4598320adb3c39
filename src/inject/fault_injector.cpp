#include "futrace/inject/fault_injector.hpp"

#include <string>

#include "futrace/support/alloc_gate.hpp"
#include "futrace/support/assert.hpp"
#include "futrace/support/rng.hpp"

namespace futrace::inject {

namespace detail {

std::atomic<fault_injector*> g_injector{nullptr};

void spawn_site_slow(fault_injector& inj) { inj.op_spawn(); }
void get_site_slow(fault_injector& inj) { inj.op_get(); }
void put_site_slow(fault_injector& inj) { inj.op_put(); }
bool drop_put_slow(fault_injector& inj) noexcept { return inj.drop_put(); }
void epoch_reset_slow(fault_injector& inj) { inj.op_epoch_reset(); }

std::uint32_t steal_start_slow(fault_injector& inj, std::uint32_t self,
                               std::uint32_t workers,
                               std::uint32_t fallback) noexcept {
  return inj.steal_start(self, workers, fallback);
}

bool yield_slow(fault_injector& inj) noexcept { return inj.force_yield(); }

int pipe_worker_slow(fault_injector& inj) noexcept {
  return inj.pipe_worker_event();
}

std::uint32_t pipe_ring_full_slow(fault_injector& inj) noexcept {
  return inj.pipe_ring_full();
}

}  // namespace detail

namespace {

/// Increments `ops` and reports whether this call is the armed 1-based
/// ordinal. fetch_add makes the trigger fire exactly once even when several
/// workers hit the site concurrently.
bool ordinal_fires(std::atomic<std::uint64_t>& ops,
                   std::uint64_t trigger) noexcept {
  const std::uint64_t n = ops.fetch_add(1, std::memory_order_relaxed) + 1;
  return trigger != 0 && n == trigger;
}

[[noreturn]] void throw_injected(const char* site, std::uint64_t ordinal) {
  throw injected_fault("injected fault: synthetic exception at " +
                       std::string(site) + " site #" +
                       std::to_string(ordinal));
}

}  // namespace

fault_injector::counters fault_injector::snapshot() const noexcept {
  counters c;
  c.spawn_sites = spawn_sites_.load(std::memory_order_relaxed);
  c.get_sites = get_sites_.load(std::memory_order_relaxed);
  c.put_sites = put_sites_.load(std::memory_order_relaxed);
  c.epoch_reset_sites = epoch_reset_sites_.load(std::memory_order_relaxed);
  c.alloc_gates = allocs_seen_.load(std::memory_order_relaxed);
  c.thrown_spawn = thrown_spawn_.load(std::memory_order_relaxed);
  c.thrown_get = thrown_get_.load(std::memory_order_relaxed);
  c.thrown_put = thrown_put_.load(std::memory_order_relaxed);
  c.thrown_epoch_reset = thrown_epoch_reset_.load(std::memory_order_relaxed);
  c.dropped_puts = dropped_puts_.load(std::memory_order_relaxed);
  c.failed_allocs = failed_allocs_.load(std::memory_order_relaxed);
  c.forced_yields = forced_yields_.load(std::memory_order_relaxed);
  c.perturbed_steals = perturbed_steals_.load(std::memory_order_relaxed);
  c.pipe_stalls = pipe_stalls_.load(std::memory_order_relaxed);
  c.pipe_kills = pipe_kills_.load(std::memory_order_relaxed);
  c.pipe_forced_fulls = pipe_forced_fulls_.load(std::memory_order_relaxed);
  return c;
}

void fault_injector::op_spawn() {
  if (ordinal_fires(spawn_sites_, plan_.throw_at_spawn)) {
    thrown_spawn_.fetch_add(1, std::memory_order_relaxed);
    throw_injected("spawn", plan_.throw_at_spawn);
  }
}

void fault_injector::op_get() {
  if (ordinal_fires(get_sites_, plan_.throw_at_get)) {
    thrown_get_.fetch_add(1, std::memory_order_relaxed);
    throw_injected("get", plan_.throw_at_get);
  }
}

void fault_injector::op_put() {
  if (ordinal_fires(put_sites_, plan_.throw_at_put)) {
    thrown_put_.fetch_add(1, std::memory_order_relaxed);
    throw_injected("put", plan_.throw_at_put);
  }
}

void fault_injector::op_epoch_reset() {
  if (ordinal_fires(epoch_reset_sites_, plan_.throw_at_epoch_reset)) {
    thrown_epoch_reset_.fetch_add(1, std::memory_order_relaxed);
    throw_injected("epoch-reset", plan_.throw_at_epoch_reset);
  }
}

bool fault_injector::drop_put() noexcept {
  if (ordinal_fires(puts_seen_, plan_.drop_put_at)) {
    dropped_puts_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool fault_injector::fail_alloc(std::size_t) noexcept {
  if (plan_.fail_alloc_at == 0) return false;
  const std::uint64_t n =
      allocs_seen_.fetch_add(1, std::memory_order_relaxed) + 1;
  bool fail = n == plan_.fail_alloc_at;
  if (!fail && plan_.fail_alloc_every != 0 && n > plan_.fail_alloc_at) {
    fail = (n - plan_.fail_alloc_at) % plan_.fail_alloc_every == 0;
  }
  if (fail) failed_allocs_.fetch_add(1, std::memory_order_relaxed);
  return fail;
}

std::uint32_t fault_injector::steal_start(std::uint32_t self,
                                          std::uint32_t workers,
                                          std::uint32_t fallback) noexcept {
  if (!plan_.perturb_steals || workers == 0) return fallback;
  // Stateless seeded hash of (seed, self, call ordinal): deterministic
  // given the interleaving, no shared RNG state to contend on.
  const std::uint64_t n = steal_calls_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t z = plan_.seed ^ (n * 0x9E3779B97F4A7C15ULL) ^
                    (std::uint64_t{self} << 32);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  perturbed_steals_.fetch_add(1, std::memory_order_relaxed);
  return static_cast<std::uint32_t>((z ^ (z >> 31)) % workers);
}

int fault_injector::pipe_worker_event() noexcept {
  if (plan_.pipe_stall_at == 0 && plan_.pipe_kill_at == 0) return pipe_proceed;
  const std::uint64_t n =
      pipe_events_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (plan_.pipe_kill_at != 0 && n == plan_.pipe_kill_at) {
    pipe_kills_.fetch_add(1, std::memory_order_relaxed);
    return pipe_kill;
  }
  if (plan_.pipe_stall_at != 0 && n == plan_.pipe_stall_at) {
    pipe_stalls_.fetch_add(1, std::memory_order_relaxed);
    return pipe_stall;
  }
  return pipe_proceed;
}

std::uint32_t fault_injector::pipe_ring_full() noexcept {
  if (plan_.pipe_ring_full_at == 0) return 0;
  const std::uint64_t n =
      pipe_pushes_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n != plan_.pipe_ring_full_at) return 0;
  pipe_forced_fulls_.fetch_add(1, std::memory_order_relaxed);
  return plan_.pipe_ring_full_spins == 0 ? 64 : plan_.pipe_ring_full_spins;
}

bool fault_injector::force_yield() noexcept {
  if (plan_.yield_every == 0) return false;
  const std::uint64_t n =
      steal_calls_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n % plan_.yield_every != 0) return false;
  forced_yields_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

namespace {

bool alloc_gate_trampoline(std::size_t bytes) noexcept {
  fault_injector* inj = current_injector();
  return inj != nullptr && inj->fail_alloc(bytes);
}

}  // namespace

scoped_injector::scoped_injector(fault_injector& inj) {
  fault_injector* expected = nullptr;
  const bool installed = detail::g_injector.compare_exchange_strong(
      expected, &inj, std::memory_order_acq_rel);
  FUTRACE_CHECK_MSG(installed, "a fault injector is already installed");
  support::alloc_gate().store(&alloc_gate_trampoline,
                              std::memory_order_release);
}

scoped_injector::~scoped_injector() {
  support::alloc_gate().store(nullptr, std::memory_order_release);
  detail::g_injector.store(nullptr, std::memory_order_release);
}

}  // namespace futrace::inject
