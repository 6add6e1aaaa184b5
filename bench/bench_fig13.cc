/**
 * @file
 * Fig. 13: energy breakdown of the SmartExchange accelerator over its
 * fourteen components, (a) CONV + squeeze-excite layers only and
 * (b) all layers including FC. The paper highlights: activation DRAM
 * dominates for most models, weight DRAM still dominates very large
 * models (VGG19/CIFAR, ResNet50), and RE (<0.78%) and the index
 * selector (<0.05%) are negligible.
 */

#include <cstdio>
#include <vector>

#include "base/table.hh"
#include "bench_util.hh"
#include "runtime/options.hh"
#include "runtime/sim_driver.hh"

namespace {

void
breakdown(bool include_fc, const char *title)
{
    using namespace se;
    accel::SmartExchangeAccel acc;
    auto ids = models::acceleratorBenchmarkModels();

    std::printf("\n--- %s ---\n", title);
    std::vector<std::string> header{"component (%)"};
    for (auto id : ids)
        header.push_back(models::modelName(id));
    Table t(header);

    // Batched one-accelerator sweep across the seven models.
    const std::vector<const accel::Accelerator *> accs{&acc};
    auto cells =
        runtime::sweep(accs, bench::annotatedWorkloads(ids), include_fc);

    for (size_t c = 0; c < sim::kNumComponents; ++c) {
        t.row().cell(sim::componentName((sim::Component)c));
        for (const auto &cell : cells[0])
            t.cell(100.0 * cell.stats.energyPj[c] /
                       cell.stats.totalEnergyPj(),
                   2);
    }
    t.print();
}

} // namespace

int
main()
{
    // Refuse a malformed or unknown SE_* variable before any output.
    se::runtime::RuntimeOptions::fromEnv();
    std::printf("=== Fig. 13: SmartExchange accelerator energy "
                "breakdown ===\n");
    breakdown(false,
              "(a) CONV + squeeze-excite layers (FC excluded)");
    breakdown(true, "(b) all layers (FC included)");
    std::printf("\nshape check: DRAM input/output dominates most "
                "models; DRAM weight grows for the largest\nmodels; RE "
                "and index-selector shares stay well under 1%%.\n");
    return 0;
}
