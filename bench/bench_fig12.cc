/**
 * @file
 * Fig. 12: normalized speedup (over DianNao) at batch size 1. The
 * paper reports SmartExchange reaching 8.8x-19.2x over DianNao and
 * average gains of 3.8x/2.5x/2.0x over SCNN/Cambricon-X/Bit-pragmatic.
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

    std::printf("=== Fig. 12: normalized speedup over DianNao "
                "(batch 1) ===\n");
    std::printf("paper: SmartExchange 8.8x-19.2x; avg 3.8x over SCNN, "
                "2.5x over Cambricon-X, 2.0x over Bit-pragmatic\n\n");

    std::vector<std::string> header{"accelerator"};
    for (auto id : ids)
        header.push_back(models::modelName(id));
    header.push_back("geomean");
    Table t(header);

    // One batched sweep; DianNao (row 0) sets the cycle reference.
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
            const double ratio =
                (double)cells[0][wi].stats.cycles /
                (double)cells[ai][wi].stats.cycles;
            ratios.push_back(ratio);
            t.cell(ratio, 2);
        }
        t.cell(bench::geomean(ratios), 2);
    }
    t.print();
    return 0;
}
