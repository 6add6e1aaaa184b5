/**
 * @file
 * Batched accelerator simulation.
 *
 * Every figure/table bench and example used to hand-roll the same
 * nested loop: for each accelerator, for each workload, sum runLayer()
 * over the layers. sweep() owns that loop once, fans the
 * (accelerator, workload) cells out across the kernel pool
 * (kernels::parallelFor, width SE_THREADS), and returns the full
 * result matrix. Accelerator::runLayer is const and side-effect free,
 * and each cell accumulates its own RunStats in layer order, so the
 * results are identical at any pool width.
 */

#ifndef SE_RUNTIME_SIM_DRIVER_HH
#define SE_RUNTIME_SIM_DRIVER_HH

#include <functional>
#include <vector>

#include "accel/accelerator.hh"

namespace se {
namespace runtime {

/** One (accelerator, workload) cell of a sweep. */
struct SimCell
{
    sim::RunStats stats;
    bool run = false;  ///< false when the skip predicate excluded it
};

/** Result matrix of a sweep: cells[accelerator][workload]. */
using SimResults = std::vector<std::vector<SimCell>>;

/**
 * Run every accelerator over every workload. `skip(ai, wi)` may
 * exclude pairs (e.g. the paper's SCNN-on-EfficientNet protocol
 * hole); excluded cells come back with run == false.
 */
SimResults
sweep(const std::vector<const accel::Accelerator *> &accs,
      const std::vector<sim::Workload> &workloads,
      bool include_fc = true,
      const std::function<bool(size_t, size_t)> &skip = nullptr);

/** Convenience overload for owning-pointer accelerator lists. */
SimResults
sweep(const std::vector<accel::AcceleratorPtr> &accs,
      const std::vector<sim::Workload> &workloads,
      bool include_fc = true,
      const std::function<bool(size_t, size_t)> &skip = nullptr);

/**
 * Aggregate a batch of layers on one accelerator (layer order
 * preserved, so the sum equals serial runLayer accumulation).
 */
sim::RunStats runLayers(const accel::Accelerator &acc,
                        const std::vector<sim::LayerShape> &layers);

} // namespace runtime
} // namespace se

#endif // SE_RUNTIME_SIM_DRIVER_HH
