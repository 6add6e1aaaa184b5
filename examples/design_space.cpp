/**
 * @file
 * Design-space exploration: sweep the PE-array geometry (dimM x dimC x
 * dimF at a fixed 8K-lane budget) and the buffer split, and report how
 * energy and latency respond on ResNet50 — the kind of study the
 * paper's Section IV design principles are distilled from.
 *
 * Usage: ./design_space
 */

#include <cstdio>
#include <vector>

#include "accel/annotate.hh"
#include "accel/smartexchange_accel.hh"
#include "base/table.hh"
#include "runtime/sim_driver.hh"

namespace {

/** SmartExchangeAccel with an overridden PE-array geometry. */
class CustomGeometry : public se::accel::SmartExchangeAccel
{
  public:
    CustomGeometry(int64_t dim_m, int64_t dim_c, int64_t dim_f)
    {
        cfg = se::sim::ArrayConfig::bitSerialDefault();
        cfg.dimM = dim_m;
        cfg.dimC = dim_c;
        cfg.dimF = dim_f;
    }
};

} // namespace

int
main()
{
    using namespace se;
    std::printf("=== PE-array geometry sweep (ResNet50, conv layers, "
                "8K bit-serial lanes) ===\n\n");
    Table t({"dimM x dimC x dimF", "lanes", "energy (mJ)",
             "latency (Mcycles)", "DRAM (MB)"});

    const int64_t geoms[][3] = {
        {64, 16, 8},  // the paper's configuration
        {128, 8, 8}, {32, 32, 8}, {64, 8, 16},
        {16, 16, 32}, {256, 16, 2},
    };

    // All geometries batched through the simulation driver at once.
    std::vector<std::unique_ptr<CustomGeometry>> variants;
    std::vector<const accel::Accelerator *> accs;
    for (const auto &g : geoms) {
        variants.push_back(
            std::make_unique<CustomGeometry>(g[0], g[1], g[2]));
        accs.push_back(variants.back().get());
    }
    auto cells = runtime::sweep(
        accs, {accel::annotatedWorkload(models::ModelId::ResNet50)},
        /*include_fc=*/false);

    for (size_t i = 0; i < accs.size(); ++i) {
        const auto &st = cells[i][0].stats;
        char geom[48];
        std::snprintf(geom, sizeof(geom), "%lldx%lldx%lld",
                      (long long)geoms[i][0], (long long)geoms[i][1],
                      (long long)geoms[i][2]);
        t.row()
            .cell(std::string(geom))
            .cell((int64_t)(geoms[i][0] * geoms[i][1] * geoms[i][2]))
            .cell(st.totalEnergyPj() / 1e9, 3)
            .cell((double)st.cycles / 1e6, 3)
            .cell((double)st.dramAccessBytes() / 1e6, 2);
    }
    t.print();
    std::printf("\nthe paper's 64x16x8 balances output-channel "
                "parallelism (input reuse) against\nper-line MAC "
                "utilization on narrow late-layer feature maps.\n");
    return 0;
}
