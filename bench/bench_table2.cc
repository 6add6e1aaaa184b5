/**
 * @file
 * Table II: SmartExchange with re-training on VGG11/ResNet50 (ImageNet
 * proxy), VGG19/ResNet164 (CIFAR-10 proxy) and MLP-1/MLP-2 (MNIST
 * proxy). Accuracy columns come from the reduced-scale functional
 * runs; the storage columns (CR / Param / B / Ce) are projected onto
 * the exact paper-scale layer geometry using the measured vector
 * sparsity, which is what the paper's numbers measure.
 *
 * Usage: ./bench_table2 [--reduced]
 *
 * --reduced runs the same six rows with a cut-down protocol (half the
 * training epochs, 2 re-training rounds instead of 5) — the variant
 * ctest pins as a golden, keeping the suite fast. The full protocol
 * stays pinned in tests/golden/bench_table2.txt and runnable as a
 * disabled golden test.
 */

#include <cstdio>
#include <cstring>

#include "base/table.hh"
#include "bench_util.hh"
#include "runtime/pipeline.hh"

namespace {

struct RowSpec
{
    se::models::ModelId id;
    /** Sparsity budget (the paper's per-layer Sc, expressed as the
     *  target fraction of zero vectors; Table II "Spar." column). */
    double sparsityTarget;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace se;
    using models::ModelId;

    bool reduced = false;
    for (int i = 1; i < argc; ++i)
        if (!std::strcmp(argv[i], "--reduced"))
            reduced = true;

    std::printf("=== Table II: SmartExchange with re-training%s ===\n",
                reduced ? " (reduced protocol)" : "");
    std::printf("paper reference rows: VGG11SE CR 47.04 spar 86%%; "
                "ResNet50SE CR 11.53-14.24 spar 45-58.6%%;\n"
                "VGG19SE CR 74.19-80.94 spar 92.8-93.7%%; ResNet164SE "
                "CR 8.04-10.55 spar 37.6-61%%;\n"
                "MLP-1SE CR 130 spar 82.34%%; MLP-2SE CR 45.03 spar "
                "93.33%%\n\n");

    const RowSpec rows[] = {
        {ModelId::VGG11, 0.86},     {ModelId::ResNet50, 0.55},
        {ModelId::VGG19, 0.93},     {ModelId::ResNet164, 0.55},
        {ModelId::MLP1, 0.82},      {ModelId::MLP2, 0.93},
    };

    Table t({"model", "top-1 base (%)", "top-1 SE (%)", "CR (x)",
             "Param (MB)", "B (MB)", "Ce (MB)", "Spar. (%)"});
    for (const auto &spec : rows) {
        // Wider sims for the aggressive-sparsity rows: the paper's
        // full-size VGGs have the overparameterization that makes >85%
        // sparsity survivable, so the stand-ins need headroom too.
        const int64_t width = spec.sparsityTarget > 0.9
                                  ? 16
                                  : spec.sparsityTarget > 0.8 ? 12 : 6;
        auto tm = bench::trainSimModel(spec.id, reduced ? 4 : 8, 6, 10,
                                       width);
        core::SeOptions opts;
        opts.vectorThreshold = 0.01;
        opts.minVectorSparsity = spec.sparsityTarget;
        core::ApplyOptions ao;
        core::SeRetrainConfig rc;
        rc.rounds = reduced ? 2 : 5;
        if (spec.sparsityTarget > 0.9) {
            rc.perRound.epochs = 2;
            rc.perRound.lr = 0.05f;
        }
        // Decompose through the thread-pooled runtime pipeline
        // (bit-identical to the serial path).
        runtime::CompressionPipeline pipe(runtime::RuntimeOptions::fromEnv());
        rc.applyFn = [&pipe](nn::Sequential &n,
                             const core::SeOptions &o,
                             const core::ApplyOptions &a) {
            return pipe.run(n, o, a);
        };
        auto res = core::retrainWithSmartExchange(*tm.net, tm.task,
                                                  opts, ao, rc);

        // Project storage onto the paper-scale geometry with the
        // measured vector sparsity.
        auto paper = models::paperShapes(spec.id);
        auto proj = bench::projectStorage(
            paper, res.report.overallVectorSparsity());

        t.row()
            .cell(models::modelName(spec.id) + "SE")
            .cell(100.0 * res.accBaseline, 1)
            .cell(100.0 * res.accRetrained, 1)
            .cell(proj.compressionRate(), 2)
            .cell(proj.paramMB(), 2)
            .cell(proj.basisMB, 2)
            .cell(proj.ceMB, 2)
            .cell(100.0 * res.report.prunedParamRatio(), 1);
    }
    t.print();
    if (reduced)
        std::printf("\nshape check (reduced): VGG family compresses "
                    "hardest (tens of x), ResNets land around\n8-15x, "
                    "MLPs reach very high CR; full accuracy recovery "
                    "needs the 5-round protocol.\n");
    else
        std::printf("\nshape check: VGG family compresses hardest "
                    "(tens of x), ResNets land around 8-15x,\nMLPs "
                    "reach very high CR; accuracy loss after "
                    "re-training stays small.\n");
    return 0;
}
