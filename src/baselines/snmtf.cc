#include "baselines/snmtf.h"

#include "baselines/core_options.h"

namespace rhchme {
namespace baselines {
namespace {

core::RhchmeOptions SnmtfCoreOptions(const SnmtfOptions& opts) {
  core::RhchmeOptions core = internal::CoreOptions(opts, opts.lambda);
  core.ensemble.include_subspace = false;
  core.ensemble.knn = opts.knn;
  return core;
}

}  // namespace

Status SnmtfOptions::Validate() const {
  return SnmtfCoreOptions(*this).Validate();
}

Result<fact::HoccResult> RunSnmtf(const data::MultiTypeRelationalData& data,
                                  const SnmtfOptions& opts) {
  Stopwatch watch;
  core::Rhchme solver(SnmtfCoreOptions(opts));
  return internal::BaselineResult(solver.Fit(data), watch);
}

}  // namespace baselines
}  // namespace rhchme
