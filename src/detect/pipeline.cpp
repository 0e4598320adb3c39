#include "futrace/detect/pipeline.hpp"

#include <unordered_map>

#include "futrace/detect/parallel_pipeline.hpp"

namespace futrace::detect {

struct pipelined_detector::impl {
  /// Serial id -> the parallel wire's id for it: the pid of its
  /// continuation chain's base task. Continuation identities never reach
  /// the wire (the replayer re-derives every split), so they share the pid
  /// of the task they continue.
  struct wire_task {
    task_id pid = k_invalid_task;
    bool continuation = false;
  };

  std::unique_ptr<race_detector> inline_det;  // inline mode
  std::unique_ptr<parallel_detector> par;     // concurrent mode
  pipeline_stats inline_stats;                // all zero in inline mode

  std::vector<wire_task> wire;  // indexed by serial task id
  task_id next_pid = 0;
  task_id root = k_invalid_task;
  /// Pre-split fulfiller identity -> its put's ordinal (1-based). A get on
  /// that identity is a promise get and carries the ordinal.
  std::unordered_map<task_id, std::uint64_t> put_ordinal;
  std::uint64_t puts = 0;

  task_id pid(task_id t) const noexcept { return wire[t].pid; }

  void record(task_id t, wire_task w) {
    if (t >= wire.size()) wire.resize(static_cast<std::size_t>(t) + 1);
    wire[t] = w;
  }
};

pipelined_detector::pipelined_detector(race_detector::options opts)
    : pipelined_detector(opts, tuning{}) {}

pipelined_detector::pipelined_detector(race_detector::options opts,
                                       tuning tune)
    : impl_(std::make_unique<impl>()) {
  // fail_fast must throw at the faulting access on the execution thread, so
  // it forces inline mode regardless of detect_threads.
  if (opts.detect_threads == 0 || opts.fail_fast) {
    opts.detect_threads = 0;
    impl_->inline_det = std::make_unique<race_detector>(opts);
    return;
  }
  parallel_detector::tuning ptune;
  ptune.ring_capacity = tune.ring_capacity;
  ptune.checkers = opts.detect_threads;
  ptune.chunk_shift = tune.chunk_shift;
  impl_->par = std::make_unique<parallel_detector>(opts, ptune);
  // One producer: the serial execution thread.
  impl_->par->begin(1);
}

pipelined_detector::~pipelined_detector() = default;
pipelined_detector::pipelined_detector(pipelined_detector&&) noexcept =
    default;
pipelined_detector& pipelined_detector::operator=(
    pipelined_detector&&) noexcept = default;

void pipelined_detector::on_program_start(task_id root) {
  impl& im = *impl_;
  if (!im.par) {
    im.inline_det->on_program_start(root);
    return;
  }
  im.root = root;
  im.record(root, {im.next_pid++, false});
  im.par->emit_program_start(0, im.pid(root));
}

void pipelined_detector::on_task_spawn(task_id parent, task_id child,
                                       task_kind kind) {
  impl& im = *impl_;
  if (!im.par) {
    im.inline_det->on_task_spawn(parent, child, kind);
    return;
  }
  if (kind == task_kind::continuation) {
    im.record(child, {im.pid(parent), true});
    return;
  }
  im.record(child, {im.next_pid++, false});
  im.par->emit_spawn(0, im.pid(parent), im.pid(child), kind);
}

void pipelined_detector::on_task_end(task_id t) {
  impl& im = *impl_;
  if (!im.par) {
    im.inline_det->on_task_end(t);
    return;
  }
  // The replayer ends continuations itself, and closes the root at EOF.
  if (im.wire[t].continuation || t == im.root) return;
  im.par->emit_task_end(0, im.pid(t));
}

void pipelined_detector::on_finish_start(task_id owner) {
  impl& im = *impl_;
  if (!im.par) {
    im.inline_det->on_finish_start(owner);
    return;
  }
  im.par->emit_finish_begin(0, im.pid(owner));
}

void pipelined_detector::on_finish_end(task_id owner,
                                       std::span<const task_id> joined) {
  impl& im = *impl_;
  if (!im.par) {
    im.inline_det->on_finish_end(owner, joined);
    return;
  }
  // The replayer rebuilds the joined list from the spawns it replayed.
  im.par->emit_finish_end(0, im.pid(owner));
}

void pipelined_detector::on_get(task_id waiter, task_id target) {
  impl& im = *impl_;
  if (!im.par) {
    im.inline_det->on_get(waiter, target);
    return;
  }
  // A target that fulfilled a put is a promise get; otherwise it is the
  // spawn id of a future. (A future whose first step was a put is both,
  // and both encodings replay to the same dense target.)
  std::uint64_t put_ref = 0;
  if (const auto it = im.put_ordinal.find(target); it != im.put_ordinal.end()) {
    put_ref = it->second;
  }
  im.par->emit_get(0, im.pid(waiter), im.pid(target), put_ref);
}

void pipelined_detector::on_promise_put(task_id fulfiller) {
  impl& im = *impl_;
  if (!im.par) {
    im.inline_det->on_promise_put(fulfiller);
    return;
  }
  const std::uint64_t ref = ++im.puts;
  im.put_ordinal.emplace(fulfiller, ref);
  im.par->emit_put(0, im.pid(fulfiller), ref);
}

void pipelined_detector::on_read(task_id t, const void* addr,
                                 std::size_t size, access_site site) {
  impl& im = *impl_;
  if (!im.par) {
    im.inline_det->on_read(t, addr, size, site);
    return;
  }
  im.par->emit_read(0, im.pid(t), addr, size, site);
}

void pipelined_detector::on_write(task_id t, const void* addr,
                                  std::size_t size, access_site site) {
  impl& im = *impl_;
  if (!im.par) {
    im.inline_det->on_write(t, addr, size, site);
    return;
  }
  im.par->emit_write(0, im.pid(t), addr, size, site);
}

void pipelined_detector::on_read_range(task_id t, const void* addr,
                                       std::size_t count, std::size_t stride,
                                       access_site site) {
  impl& im = *impl_;
  if (!im.par) {
    im.inline_det->on_read_range(t, addr, count, stride, site);
    return;
  }
  im.par->emit_read_range(0, im.pid(t), addr, count, stride, site);
}

void pipelined_detector::on_write_range(task_id t, const void* addr,
                                        std::size_t count, std::size_t stride,
                                        access_site site) {
  impl& im = *impl_;
  if (!im.par) {
    im.inline_det->on_write_range(t, addr, count, stride, site);
    return;
  }
  im.par->emit_write_range(0, im.pid(t), addr, count, stride, site);
}

void pipelined_detector::on_region_retire(task_id t, const void* addr,
                                          std::size_t bytes) {
  impl& im = *impl_;
  if (!im.par) {
    im.inline_det->on_region_retire(t, addr, bytes);
    return;
  }
  im.par->emit_region_retire(0, im.pid(t), addr, bytes);
}

void pipelined_detector::on_program_end() {
  if (!impl_->par) {
    impl_->inline_det->on_program_end();
    return;
  }
  impl_->par->program_done();
}

bool pipelined_detector::race_detected() const { return race_count() > 0; }

std::uint64_t pipelined_detector::race_count() const {
  return impl_->par ? impl_->par->race_count()
                    : impl_->inline_det->race_count();
}

bool pipelined_detector::degraded() const {
  return impl_->par ? impl_->par->degraded() : impl_->inline_det->degraded();
}

const std::vector<race_report>& pipelined_detector::reports() const {
  return impl_->par ? impl_->par->reports() : impl_->inline_det->reports();
}

std::vector<const void*> pipelined_detector::racy_locations() const {
  return impl_->par ? impl_->par->racy_locations()
                    : impl_->inline_det->racy_locations();
}

detector_counters pipelined_detector::counters() const {
  return impl_->par ? impl_->par->counters() : impl_->inline_det->counters();
}

std::size_t pipelined_detector::memory_bytes() const {
  return impl_->par ? impl_->par->memory_bytes()
                    : impl_->inline_det->memory_bytes();
}

const pipeline_stats& pipelined_detector::pipe_stats() const {
  return impl_->par ? impl_->par->pipe_stats() : impl_->inline_stats;
}

std::vector<std::uint64_t> pipelined_detector::suppression_hits() const {
  return impl_->par ? impl_->par->suppression_hits()
                    : impl_->inline_det->suppression_hits();
}

bool pipelined_detector::pipelined() const { return impl_->par != nullptr; }

}  // namespace futrace::detect
