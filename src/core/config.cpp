#include "core/config.h"

namespace pahoehoe::core {

ConvergenceOptions ConvergenceOptions::naive() { return {}; }

ConvergenceOptions ConvergenceOptions::fs_amr_sync() {
  ConvergenceOptions opts;
  opts.fs_amr_indication = true;
  opts.unsync_rounds = false;
  return opts;
}

ConvergenceOptions ConvergenceOptions::fs_amr_unsync() {
  ConvergenceOptions opts;
  opts.fs_amr_indication = true;
  opts.unsync_rounds = true;
  return opts;
}

ConvergenceOptions ConvergenceOptions::put_amr() {
  ConvergenceOptions opts;
  opts.put_amr_indication = true;
  opts.unsync_rounds = true;
  return opts;
}

ConvergenceOptions ConvergenceOptions::sibling_only() {
  ConvergenceOptions opts;
  opts.sibling_recovery = true;
  opts.unsync_rounds = true;
  return opts;
}

ConvergenceOptions ConvergenceOptions::all_opts() {
  ConvergenceOptions opts;
  opts.fs_amr_indication = true;
  opts.unsync_rounds = true;
  opts.put_amr_indication = true;
  opts.sibling_recovery = true;
  return opts;
}

std::string describe(const ConvergenceOptions& opts) {
  std::string out;
  auto append = [&out](bool enabled, const char* name) {
    if (!enabled) return;
    if (!out.empty()) out += "+";
    out += name;
  };
  append(opts.fs_amr_indication, "FSAMR");
  append(opts.put_amr_indication, "PutAMR");
  append(opts.sibling_recovery, "Sibling");
  append(opts.unsync_rounds, "Unsync");
  if (out.empty()) out = "Naive";
  return out;
}

}  // namespace pahoehoe::core
