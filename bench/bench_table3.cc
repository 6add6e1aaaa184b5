/**
 * @file
 * Table III: SmartExchange on the compact models MobileNetV2 and
 * EfficientNet-B0. The paper reports zero weight sparsity here (the
 * compact models have little slack to prune) with CR ~6.6x coming from
 * the 4-bit coefficient + small basis representation alone.
 */

#include <cstdio>

#include "base/table.hh"
#include "bench_util.hh"
#include "runtime/pipeline.hh"

int
main()
{
    using namespace se;
    using models::ModelId;

    std::printf("=== Table III: SmartExchange on compact models ===\n");
    std::printf("paper reference: MBV2SE CR 6.57 (13.92 -> 2.12 MB), "
                "Eff-B0SE CR 6.67 (20.40 -> 3.06 MB),\nboth with 0%% "
                "pruned parameters.\n\n");

    Table t({"model", "top-1 base (%)", "top-1 SE (%)", "CR (x)",
             "Param (MB)", "B (MB)", "Ce (MB)", "Spar. (%)"});
    for (ModelId id : {ModelId::MobileNetV2, ModelId::EfficientNetB0}) {
        auto tm = bench::trainSimModel(id);
        core::SeOptions opts;
        // Compact models: no vector pruning (matches the paper's 0%
        // sparsity row), compression comes from quantization alone.
        opts.vectorThreshold = 0.0;
        core::SeRetrainConfig rc;
        rc.rounds = 3;
        // Decompose through the thread-pooled runtime pipeline
        // (bit-identical to the serial path).
        runtime::CompressionPipeline pipe(runtime::RuntimeOptions::fromEnv());
        rc.applyFn = [&pipe](nn::Sequential &n,
                             const core::SeOptions &o,
                             const core::ApplyOptions &a) {
            return pipe.run(n, o, a);
        };
        auto res = core::retrainWithSmartExchange(
            *tm.net, tm.task, opts, core::ApplyOptions{}, rc);

        auto paper = models::paperShapes(id);
        auto proj = bench::projectStorage(
            paper, res.report.overallVectorSparsity());

        t.row()
            .cell(models::modelName(id) + "SE")
            .cell(100.0 * res.accBaseline, 1)
            .cell(100.0 * res.accRetrained, 1)
            .cell(proj.compressionRate(), 2)
            .cell(proj.paramMB(), 2)
            .cell(proj.basisMB, 2)
            .cell(proj.ceMB, 2)
            .cell(100.0 * res.report.prunedParamRatio(), 1);
    }
    t.print();
    std::printf("\nshape check: CR lands near the 6-8x band driven by "
                "4-bit coefficients, with low sparsity.\n");
    return 0;
}
