#include "futrace/inject/fault_plan.hpp"

#include <sstream>

namespace futrace::inject {

std::string fault_plan::describe() const {
  std::ostringstream out;
  if (throw_at_spawn != 0) out << "spawn-throw@" << throw_at_spawn << " ";
  if (throw_at_get != 0) out << "get-throw@" << throw_at_get << " ";
  if (throw_at_put != 0) out << "put-throw@" << throw_at_put << " ";
  if (throw_at_epoch_reset != 0) {
    out << "epoch-reset-throw@" << throw_at_epoch_reset << " ";
  }
  if (drop_put_at != 0) out << "drop-put@" << drop_put_at << " ";
  if (fail_alloc_at != 0) {
    out << "fail-alloc@" << fail_alloc_at;
    if (fail_alloc_every != 0) out << "+every" << fail_alloc_every;
    out << " ";
  }
  if (perturb_steals) out << "perturb-steals(seed=" << seed << ") ";
  if (yield_every != 0) out << "yield-every=" << yield_every << " ";
  if (pipe_stall_at != 0) out << "pipe-stall@" << pipe_stall_at << " ";
  if (pipe_kill_at != 0) out << "pipe-kill@" << pipe_kill_at << " ";
  if (pipe_ring_full_at != 0) {
    out << "pipe-ring-full@" << pipe_ring_full_at << "x"
        << pipe_ring_full_spins << " ";
  }
  std::string s = out.str();
  if (s.empty()) return "no-faults";
  s.pop_back();  // trailing space
  return s;
}

void define_fault_flags(support::flag_parser& flags) {
  flags.define("fault-seed", "0", "seed for schedule-perturbation faults");
  flags.define("fault-spawn", "0",
               "throw injected_fault at the Nth spawn site (0 = off)");
  flags.define("fault-get", "0",
               "throw injected_fault at the Nth get() site (0 = off)");
  flags.define("fault-put", "0",
               "throw injected_fault at the Nth put() site (0 = off)");
  flags.define("fault-drop-put", "0",
               "silently drop the Nth promise fulfillment (0 = off)");
  flags.define("fault-epoch-reset-throw", "0",
               "throw injected_fault at the Nth epoch-reset attempt (0 = off)");
  flags.define("fault-alloc", "0",
               "deny the Nth gated allocation (0 = off)");
  flags.define("fault-alloc-every", "0",
               "after --fault-alloc fires, deny every Nth allocation");
  flags.define("fault-perturb-steals", "false",
               "perturb the parallel engine's steal-victim order");
  flags.define("fault-yield-every", "0",
               "force a yield before every Nth steal attempt (0 = off)");
  flags.define("fault-pipe-stall", "0",
               "stall the checker worker at the Nth pipeline event (0 = off)");
  flags.define("fault-pipe-kill", "0",
               "kill the checker worker at the Nth pipeline event (0 = off)");
  flags.define("fault-pipe-ring-full", "0",
               "force ring-full backpressure at the Nth push (0 = off)");
  flags.define("fault-pipe-ring-spins", "64",
               "backpressure spins forced by --fault-pipe-ring-full");
}

fault_plan fault_plan_from_flags(const support::flag_parser& flags) {
  fault_plan plan;
  plan.seed = static_cast<std::uint64_t>(flags.get_int("fault-seed"));
  plan.throw_at_spawn =
      static_cast<std::uint64_t>(flags.get_int("fault-spawn"));
  plan.throw_at_get = static_cast<std::uint64_t>(flags.get_int("fault-get"));
  plan.throw_at_put = static_cast<std::uint64_t>(flags.get_int("fault-put"));
  plan.drop_put_at =
      static_cast<std::uint64_t>(flags.get_int("fault-drop-put"));
  plan.throw_at_epoch_reset =
      static_cast<std::uint64_t>(flags.get_int("fault-epoch-reset-throw"));
  plan.fail_alloc_at =
      static_cast<std::uint64_t>(flags.get_int("fault-alloc"));
  plan.fail_alloc_every =
      static_cast<std::uint64_t>(flags.get_int("fault-alloc-every"));
  plan.perturb_steals = flags.get_bool("fault-perturb-steals");
  plan.yield_every =
      static_cast<std::uint32_t>(flags.get_int("fault-yield-every"));
  plan.pipe_stall_at =
      static_cast<std::uint64_t>(flags.get_int("fault-pipe-stall"));
  plan.pipe_kill_at =
      static_cast<std::uint64_t>(flags.get_int("fault-pipe-kill"));
  plan.pipe_ring_full_at =
      static_cast<std::uint64_t>(flags.get_int("fault-pipe-ring-full"));
  plan.pipe_ring_full_spins =
      static_cast<std::uint32_t>(flags.get_int("fault-pipe-ring-spins"));
  return plan;
}

}  // namespace futrace::inject
