/**
 * @file
 * Accelerator comparison: run the seven paper-scale benchmark models
 * through the SmartExchange accelerator and the four baselines and
 * print energy / latency / DRAM-access comparisons (the Fig. 10-12
 * protocol in one program).
 *
 * Usage: ./accelerator_compare
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "accel/annotate.hh"
#include "accel/baselines.hh"
#include "accel/smartexchange_accel.hh"
#include "base/table.hh"
#include "runtime/sim_driver.hh"

int
main()
{
    using namespace se;

    std::vector<accel::AcceleratorPtr> accs;
    accs.push_back(std::make_unique<accel::DianNao>());
    accs.push_back(std::make_unique<accel::Scnn>());
    accs.push_back(std::make_unique<accel::CambriconX>());
    accs.push_back(std::make_unique<accel::BitPragmatic>());
    accs.push_back(std::make_unique<accel::SmartExchangeAccel>());

    auto ids = models::acceleratorBenchmarkModels();
    std::vector<sim::Workload> workloads;
    for (auto id : ids)
        workloads.push_back(accel::annotatedWorkload(id));

    // The whole 5-accelerator x 7-model grid in one batched sweep.
    // SCNN cannot run the squeeze-excite network (paper protocol:
    // Eff-B0 excluded for SCNN).
    auto cells = runtime::sweep(
        accs, workloads, /*include_fc=*/false,
        [&](size_t ai, size_t wi) {
            return accs[ai]->name() == "SCNN" &&
                   ids[wi] == models::ModelId::EfficientNetB0;
        });

    for (size_t wi = 0; wi < workloads.size(); ++wi) {
        const auto &w = workloads[wi];
        std::printf("\n%s on %s (%lld conv-ish layers, %.2f GMACs)\n",
                    w.name.c_str(), w.dataset.c_str(),
                    (long long)w.layers.size(),
                    (double)w.totalMacs() / 1e9);
        Table t({"accelerator", "energy(mJ)", "latency(ms@1GHz)",
                 "DRAM(MB)", "vs DianNao energy", "vs DianNao speed"});
        const auto &dn = cells[0][wi].stats;  // row 0 is DianNao
        for (size_t ai = 0; ai < accs.size(); ++ai) {
            if (!cells[ai][wi].run)
                continue;
            const auto &st = cells[ai][wi].stats;
            t.row()
                .cell(accs[ai]->name())
                .cell(st.totalEnergyPj() / 1e9, 3)
                .cell((double)st.cycles / 1e6, 3)
                .cell((double)st.dramAccessBytes() / 1e6, 2)
                .cell(dn.totalEnergyPj() / st.totalEnergyPj(), 2)
                .cell((double)dn.cycles / (double)st.cycles, 2);
        }
        t.print();
    }
    return 0;
}
