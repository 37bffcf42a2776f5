#include "search/pricing.h"

#include <cmath>

#include "hw/presets.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/units.h"

namespace calculon {
namespace {

double HbmPrice(double gib) {
  if (gib == 20.0) return 2'250.0;
  if (gib == 40.0) return 5'000.0;
  if (gib == 80.0) return 10'000.0;
  if (gib == 120.0) return 20'000.0;
  throw ConfigError(StrFormat("no HBM3 price for %g GiB", gib));
}

double DdrPrice(double gib) {
  if (gib == 0.0) return 0.0;
  if (gib == 256.0) return 2'500.0;
  if (gib == 512.0) return 10'000.0;
  if (gib == 1024.0) return 20'000.0;
  throw ConfigError(StrFormat("no DDR5 price for %g GiB", gib));
}

constexpr double kGpuBasePrice = 20'000.0;

}  // namespace

double SystemDesign::UnitPrice() const {
  return kGpuBasePrice + HbmPrice(hbm_gib) + DdrPrice(ddr_gib);
}

std::int64_t SystemDesign::MaxGpus(double budget) const {
  if (!std::isfinite(budget) || budget < 0.0) {
    throw ConfigError(StrFormat("budget $%g is not a finite amount >= 0",
                                budget));
  }
  // The cast is defined only below 2^63: check before casting.
  const double gpus = budget / UnitPrice();
  if (!(gpus < 0x1p63)) {
    throw ConfigError(StrFormat("budget $%g buys %g GPUs, outside int64",
                                budget, gpus));
  }
  const auto raw = static_cast<std::int64_t>(gpus);
  return raw - raw % 8;
}

System SystemDesign::Build(std::int64_t num_procs) const {
  presets::SystemOptions o;
  o.num_procs = num_procs;
  o.hbm_capacity = GiB(hbm_gib);
  if (ddr_gib > 0.0) {
    o.offload_capacity = GiB(ddr_gib);
    o.offload_bandwidth = GBps(100);
  }
  return presets::H100(o);
}

std::string SystemDesign::Label() const {
  if (ddr_gib >= 1024.0) {
    return StrFormat("%gG+%gT", hbm_gib, ddr_gib / 1024.0);
  }
  if (ddr_gib > 0.0) return StrFormat("%gG+%gG", hbm_gib, ddr_gib);
  return StrFormat("%gG", hbm_gib);
}

std::vector<SystemDesign> Table3Designs() {
  std::vector<SystemDesign> designs;
  for (double ddr : {0.0, 256.0, 512.0, 1024.0}) {
    for (double hbm : {20.0, 40.0, 80.0, 120.0}) {
      designs.push_back({hbm, ddr});
    }
  }
  return designs;
}

}  // namespace calculon
