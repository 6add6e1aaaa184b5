/**
 * @file
 * Fig. 11: normalized number of DRAM accesses (over the SmartExchange
 * accelerator). The paper reports baselines needing 1.1x-3.5x the
 * DRAM accesses of SmartExchange, with compact (activation-dominated)
 * models showing the smallest gap.
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

    std::printf("=== Fig. 11: normalized # DRAM accesses over "
                "SmartExchange ===\n");
    std::printf("paper: baselines need 1.1x-3.5x; smallest gaps on "
                "compact models\n\n");

    std::vector<std::string> header{"accelerator"};
    for (auto id : ids)
        header.push_back(models::modelName(id));
    header.push_back("geomean");
    Table t(header);

    // One batched sweep; SmartExchange (last row) is the reference.
    auto cells =
        runtime::sweep(accs, bench::annotatedWorkloads(ids),
                      /*include_fc=*/false,
                      bench::scnnEffNetSkip(accs, ids));
    const size_t se_row = accs.size() - 1;

    for (size_t ai = 0; ai < accs.size(); ++ai) {
        t.row().cell(accs[ai]->name());
        std::vector<double> ratios;
        for (size_t wi = 0; wi < ids.size(); ++wi) {
            if (!cells[ai][wi].run) {
                t.cell("-");
                continue;
            }
            const double ratio =
                (double)cells[ai][wi].stats.dramAccessBytes() /
                (double)cells[se_row][wi].stats.dramAccessBytes();
            ratios.push_back(ratio);
            t.cell(ratio, 2);
        }
        t.cell(bench::geomean(ratios), 2);
    }
    t.print();
    return 0;
}
