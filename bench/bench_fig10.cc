/**
 * @file
 * Fig. 10: normalized energy efficiency (over DianNao) of the
 * SmartExchange accelerator and the four baselines on the seven
 * benchmark models (FC layers excluded per the paper's protocol; SCNN
 * skipped on EfficientNet-B0).
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

    auto accs = bench::paperAccelerators();
    auto ids = models::acceleratorBenchmarkModels();

    std::printf("=== Fig. 10: normalized energy efficiency over "
                "DianNao ===\n");
    std::printf("paper: SmartExchange wins everywhere, 2.0x-6.7x, "
                "geomean 3.7x\n\n");

    std::vector<std::string> header{"accelerator"};
    for (auto id : ids)
        header.push_back(models::modelName(id));
    header.push_back("geomean");
    Table t(header);

    // One batched sweep over every (accelerator, model) cell; DianNao
    // (row 0) is the normalization reference.
    auto cells =
        runtime::sweep(accs, bench::annotatedWorkloads(ids),
                      /*include_fc=*/false,
                      bench::scnnEffNetSkip(accs, ids));

    for (size_t ai = 0; ai < accs.size(); ++ai) {
        t.row().cell(accs[ai]->name());
        std::vector<double> ratios;
        for (size_t wi = 0; wi < ids.size(); ++wi) {
            if (!cells[ai][wi].run) {
                t.cell("-");
                continue;
            }
            const double ratio = cells[0][wi].stats.totalEnergyPj() /
                                 cells[ai][wi].stats.totalEnergyPj();
            ratios.push_back(ratio);
            t.cell(ratio, 2);
        }
        t.cell(bench::geomean(ratios), 2);
    }
    t.print();
    return 0;
}
