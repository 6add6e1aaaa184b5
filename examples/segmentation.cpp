/**
 * @file
 * Segmentation scenario: train a reduced-scale DeepLabV3+-style model
 * on a synthetic CamVid-like task, compress it with SmartExchange and
 * report the mIoU before/after (the paper's Section V-A extension
 * beyond classification).
 *
 * Usage: ./segmentation
 */

#include <cstdio>

#include "core/trainer.hh"
#include "models/zoo.hh"
#include "runtime/pipeline.hh"

int
main()
{
    using namespace se;

    data::SegSetConfig scfg;
    scfg.numClasses = 4;
    scfg.height = scfg.width = 16;
    scfg.batchSize = 6;
    scfg.trainBatches = 12;
    scfg.testBatches = 4;
    auto task = data::makeSegmentation(scfg);

    models::SimConfig mcfg;
    mcfg.numClasses = scfg.numClasses;
    mcfg.inHeight = mcfg.inWidth = 16;
    mcfg.baseWidth = 8;
    auto net = models::buildSim(models::ModelId::DeepLabV3Plus, mcfg);

    std::printf("training DeepLabV3+-sim on synthetic CamVid...\n");
    core::TrainConfig tc;
    tc.epochs = 8;
    tc.lr = 0.1f;
    const double miou = core::trainSegmenter(*net, task, tc);
    std::printf("baseline mIoU: %.1f%%\n", 100.0 * miou);

    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.015;
    // Decomposition fanned out on the kernel pool (SE_THREADS wide);
    // bit-identical to the serial path.
    runtime::CompressionPipeline pipe;
    auto report = pipe.run(*net, se_opts, core::ApplyOptions{});
    const double miou_se = core::evaluateSegmenter(*net, task.test);

    std::printf("after SmartExchange: mIoU %.1f%% (drop %.1f pts), "
                "CR %.1fx, vector sparsity %.1f%%\n",
                100.0 * miou_se, 100.0 * (miou - miou_se),
                report.compressionRate(),
                100.0 * report.overallVectorSparsity());
    std::printf("paper reference: 74.20%% -> 71.20%% mIoU at "
                "10.86x CR on CamVid\n");
    return 0;
}
