/**
 * @file
 * Component-contribution ablation (Section V-B): build up the
 * SmartExchange accelerator feature by feature on ResNet50 and report
 * each component's share of the energy saving and the speedup, plus
 * the DESIGN.md design-choice ablations (RE placement, ping-pong REs).
 *
 * Paper reference: 3.65x energy and 7.41x speedup over a
 * similar-resource dense baseline; DRAM-reduction contributions of
 * 23.99% (compression), 12.48% (vector sparsity), 36.14% (bit-level
 * sparsity).
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

    auto w = accel::annotatedWorkload(models::ModelId::ResNet50);

    struct Step
    {
        const char *name;
        accel::SeAccelOptions opts;
    };
    accel::SeAccelOptions none;
    none.useCompression = false;
    none.useIndexSelector = false;
    none.useBitSerial = false;
    accel::SeAccelOptions comp = none;
    comp.useCompression = true;
    accel::SeAccelOptions comp_idx = comp;
    comp_idx.useIndexSelector = true;
    accel::SeAccelOptions full = comp_idx;
    full.useBitSerial = true;

    const Step steps[] = {
        {"dense baseline (similar resources)", none},
        {"+ SE compression", comp},
        {"+ vector-sparsity index selector", comp_idx},
        {"+ bit-serial Booth MACs (full)", full},
    };

    std::printf("=== Component ablation on ResNet50 (Section V-B) "
                "===\n");
    std::printf("paper: 3.65x energy, 7.41x speedup vs similar-"
                "resource dense baseline\n\n");

    Table t({"configuration", "energy (mJ)", "cycles (M)",
             "energy gain (x)", "speedup (x)",
             "marginal energy saving (%)"});

    // One batched sweep over every configuration (the four build-up
    // steps plus the two design-choice variants) on the one workload.
    accel::SeAccelOptions re_at_gb = full;
    re_at_gb.rebuildInPeLine = false;
    accel::SeAccelOptions single_re = full;
    single_re.pingPongRe = false;

    std::vector<accel::SmartExchangeAccel> variants;
    variants.reserve(6);
    for (const auto &s : steps)
        variants.emplace_back(s.opts);
    variants.emplace_back(re_at_gb);
    variants.emplace_back(single_re);
    std::vector<const accel::Accelerator *> accs;
    for (const auto &v : variants)
        accs.push_back(&v);

    auto cells = runtime::sweep(accs, {w}, /*include_fc=*/true);

    // steps[3] is the full design; steps[0] the dense baseline.
    const double full_saving =
        std::max(cells[0][0].stats.totalEnergyPj() -
                     cells[3][0].stats.totalEnergyPj(),
                 1e-9);
    const double base_e = cells[0][0].stats.totalEnergyPj();
    const double base_c = (double)cells[0][0].stats.cycles;
    double prev_e = base_e;
    for (size_t i = 0; i < 4; ++i) {
        const auto &st = cells[i][0].stats;
        const double e = st.totalEnergyPj();
        t.row()
            .cell(steps[i].name)
            .cell(e / 1e9, 3)
            .cell((double)st.cycles / 1e6, 3)
            .cell(base_e / e, 2)
            .cell(base_c / (double)st.cycles, 2)
            .cell(100.0 * (prev_e - e) / full_saving, 1);
        prev_e = e;
    }
    t.print();

    std::printf("\n--- design-choice ablations (DESIGN.md section 5) "
                "---\n");
    Table d({"design choice", "energy (mJ)", "cycles (M)"});
    const struct
    {
        const char *name;
        size_t cell;
    } designs[] = {
        {"full design (RE in PE line, ping-pong)", 3},
        {"RE at GB instead of in PE lines", 4},
        {"single RE (no ping-pong stall hiding)", 5},
    };
    for (const auto &cfg : designs) {
        const auto &st = cells[cfg.cell][0].stats;
        d.row()
            .cell(cfg.name)
            .cell(st.totalEnergyPj() / 1e9, 3)
            .cell((double)st.cycles / 1e6, 3);
    }
    d.print();
    return 0;
}
