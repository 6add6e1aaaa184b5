/**
 * @file
 * End-to-end CNN compression: train a reduced-scale VGG on a synthetic
 * CIFAR-like task, post-process with SmartExchange, re-train with the
 * alternating projection loop (Section III-C), and report the paper's
 * Table II columns.
 *
 * Usage: ./compress_cnn
 */

#include <cstdio>

#include "base/table.hh"
#include "core/trainer.hh"
#include "models/zoo.hh"
#include "runtime/pipeline.hh"

int
main()
{
    using namespace se;

    data::ClassSetConfig dcfg;
    dcfg.numClasses = 6;
    dcfg.height = dcfg.width = 12;
    dcfg.trainBatches = 16;
    dcfg.testBatches = 6;
    dcfg.noise = 0.4f;
    auto task = data::makeClassification(dcfg);

    models::SimConfig mcfg;
    mcfg.numClasses = dcfg.numClasses;
    mcfg.inHeight = mcfg.inWidth = 12;
    mcfg.baseWidth = 8;
    auto net = models::buildSim(models::ModelId::VGG19, mcfg);

    std::printf("training baseline VGG19-sim...\n");
    core::TrainConfig tc;
    tc.epochs = 10;
    tc.lr = 0.05f;
    const double base_acc = core::trainClassifier(*net, task, tc);
    std::printf("baseline accuracy: %.1f%%\n", 100.0 * base_acc);

    std::printf("applying SmartExchange + re-training...\n");
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.02;
    core::ApplyOptions apply_opts;
    apply_opts.channelGammaThreshold = 0.05;
    core::SeRetrainConfig rc;
    rc.rounds = 4;
    // Run every SE projection through the runtime pipeline, which
    // fans out on the kernel pool (SE_THREADS wide); the output is
    // bit-identical to the serial path.
    runtime::CompressionPipeline pipe;
    rc.applyFn = [&pipe](nn::Sequential &n, const core::SeOptions &o,
                         const core::ApplyOptions &a) {
        return pipe.run(n, o, a);
    };
    auto res = core::retrainWithSmartExchange(*net, task, se_opts,
                                              apply_opts, rc);

    Table t({"stage", "top-1", "CR", "Param(KB)", "B(KB)", "Ce(KB)",
             "Spar."});
    t.row()
        .cell("baseline")
        .cell(100.0 * res.accBaseline, 1)
        .cell("-")
        .cell(res.report.originalMB() * 1000.0, 1)
        .cell("-")
        .cell("-")
        .cell("-");
    t.row()
        .cell("SE post-process")
        .cell(100.0 * res.accPostProcess, 1)
        .cell(res.report.compressionRate(), 1)
        .cell(res.report.paramMB() * 1000.0, 2)
        .cell(res.report.basisMB() * 1000.0, 2)
        .cell(res.report.ceMB() * 1000.0, 2)
        .cell(100.0 * res.report.prunedParamRatio(), 1);
    t.row()
        .cell("SE + re-train")
        .cell(100.0 * res.accRetrained, 1)
        .cell(res.report.compressionRate(), 1)
        .cell(res.report.paramMB() * 1000.0, 2)
        .cell(res.report.basisMB() * 1000.0, 2)
        .cell(res.report.ceMB() * 1000.0, 2)
        .cell(100.0 * res.report.prunedParamRatio(), 1);
    t.print();

    std::printf("\nper-layer breakdown:\n");
    Table lt({"layer", "weights", "vec-spar", "elem-spar", "rel-err"});
    for (const auto &l : res.report.layers) {
        if (!l.decomposed)
            continue;
        lt.row()
            .cell(l.name)
            .cell((int64_t)l.weightCount)
            .cell(100.0 * l.vectorSparsity, 1)
            .cell(100.0 * l.elementSparsity, 1)
            .cell(l.reconRelError, 3);
    }
    lt.print();
    return 0;
}
