/**
 * @file
 * Fig. 15: effectiveness of the dedicated compact-model support.
 * Normalized energy and latency of selected MobileNetV2 depth-wise
 * CONV layers with and without the dedicated dataflow/PE-line remap.
 * The paper reports up to 28.8% energy and 38.3-65.7% latency savings.
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
    // Refuse a malformed or unknown SE_* variable before any output.
    runtime::RuntimeOptions::fromEnv();

    accel::SeAccelOptions with, without;
    without.dedicatedCompactSupport = false;
    accel::SmartExchangeAccel acc_with(with), acc_without(without);

    auto w = accel::annotatedWorkload(models::ModelId::MobileNetV2);
    // Collect the depth-wise layers, in network order.
    std::vector<const sim::LayerShape *> dw;
    for (const auto &l : w.layers)
        if (l.kind == sim::LayerKind::DepthwiseConv)
            dw.push_back(&l);

    std::printf("=== Fig. 15: dedicated compact-model design on "
                "MobileNetV2 depth-wise layers ===\n");
    std::printf("paper: energy savings up to 28.8%%, latency savings "
                "38.3%%-65.7%% on layers 5/20/23/38\n\n");

    Table t({"dw layer #", "shape (CxHxW)", "energy w/o (uJ)",
             "energy w/ (uJ)", "saving (%)", "latency w/o (kcyc)",
             "latency w/ (kcyc)", "saving (%)"});
    // The paper indexes layers 5, 20, 23, 38 in its (57-layer)
    // numbering; we pick the corresponding early/mid/late dw layers.
    const size_t picks[] = {1, 7, 9, 14};

    // Batch both accelerator variants over the picked layers (one
    // single-layer workload per pick).
    std::vector<sim::Workload> singles;
    std::vector<size_t> kept;
    for (size_t p : picks) {
        if (p >= dw.size())
            continue;
        sim::Workload one;
        one.layers.push_back(*dw[p]);
        singles.push_back(std::move(one));
        kept.push_back(p);
    }
    const std::vector<const accel::Accelerator *> accs{&acc_without,
                                                       &acc_with};
    auto cells = runtime::sweep(accs, singles);

    for (size_t i = 0; i < kept.size(); ++i) {
        const size_t p = kept[i];
        const auto &l = singles[i].layers[0];
        const auto &a = cells[0][i].stats;
        const auto &b = cells[1][i].stats;
        char shape[48];
        std::snprintf(shape, sizeof(shape), "%lldx%lldx%lld",
                      (long long)l.c, (long long)l.h, (long long)l.w);
        t.row()
            .cell((int64_t)p)
            .cell(std::string(shape))
            .cell(a.totalEnergyPj() / 1e6, 2)
            .cell(b.totalEnergyPj() / 1e6, 2)
            .cell(100.0 * (1.0 - b.totalEnergyPj() /
                                     a.totalEnergyPj()), 1)
            .cell((double)a.cycles / 1e3, 1)
            .cell((double)b.cycles / 1e3, 1)
            .cell(100.0 * (1.0 - (double)b.cycles / (double)a.cycles),
                  1);
    }
    t.print();
    return 0;
}
