/**
 * @file
 * Fig. 14: SmartExchange accelerator energy breakdown and latency when
 * running ResNet50 at four vector-wise weight sparsity ratios (45.0%,
 * 51.7%, 57.5%, 60.0%). The paper reports input DRAM+GB energy falling
 * 18.33% and latency falling 41.83% from the lowest to the highest
 * sparsity.
 */

#include <cstdio>
#include <vector>

#include "base/table.hh"
#include "bench_util.hh"
#include "runtime/options.hh"
#include "runtime/sim_driver.hh"

int
main()
{
    using namespace se;
    using sim::Component;
    // Refuse a malformed or unknown SE_* variable before any output.
    runtime::RuntimeOptions::fromEnv();

    accel::SmartExchangeAccel acc;
    const double ratios[] = {0.45, 0.517, 0.575, 0.60};

    std::printf("=== Fig. 14: ResNet50 at four vector-wise weight "
                "sparsity ratios ===\n\n");
    Table t({"sparsity (%)", "energy (mJ)", "latency (ms)",
             "input DRAM+GB (mJ)", "norm. energy eff", "norm. speedup"});

    // One workload per sparsity point, swept in a single batch.
    std::vector<sim::Workload> sweeps;
    for (double r : ratios) {
        auto w = accel::annotatedWorkload(models::ModelId::ResNet50);
        for (auto &l : w.layers) {
            l.weightVectorSparsity = r;
            l.weightElementSparsity = std::min(0.95, r + 0.1);
        }
        sweeps.push_back(std::move(w));
    }
    auto cells = runtime::sweep({&acc}, sweeps, /*include_fc=*/true);

    const double base_energy = cells[0][0].stats.totalEnergyPj();
    const double base_cycles = (double)cells[0][0].stats.cycles;
    for (size_t i = 0; i < sweeps.size(); ++i) {
        const auto &st = cells[0][i].stats;
        const double input_mem =
            st.energy(Component::DramInput) +
            st.energy(Component::InputGbRead) +
            st.energy(Component::InputGbWrite);
        t.row()
            .cell(100.0 * ratios[i], 1)
            .cell(st.totalEnergyPj() / 1e9, 3)
            .cell((double)st.cycles / 1e6, 3)
            .cell(input_mem / 1e9, 3)
            .cell(base_energy / st.totalEnergyPj(), 2)
            .cell(base_cycles / (double)st.cycles, 2);
    }
    t.print();
    std::printf("\nshape check: both energy and latency fall "
                "monotonically as vector sparsity rises\n(paper: "
                "-18.33%% input-memory energy, -41.83%% latency from "
                "45%% to 60%%).\n");
    return 0;
}
