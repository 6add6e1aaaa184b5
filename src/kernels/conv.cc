#include "kernels/conv.hh"

#include "base/logging.hh"
#include "kernels/gemm.hh"
#include "kernels/im2col.hh"

namespace se {
namespace kernels {

namespace {

/** Derived per-call geometry of one forward call. */
struct ConvDims
{
    int64_t n, h, w, oh, ow, cpg, mpg, patch, cols;
};

ConvDims
deriveDims(const Tensor &x, const ConvSpec &sp)
{
    SE_ASSERT(x.ndim() == 4 && x.dim(1) == sp.inCh,
              "conv input shape mismatch");
    ConvDims d;
    d.n = x.dim(0);
    d.h = x.dim(2);
    d.w = x.dim(3);
    const int64_t kext = sp.dil * (sp.kern - 1) + 1;
    d.oh = (d.h + 2 * sp.pad - kext) / sp.stride + 1;
    d.ow = (d.w + 2 * sp.pad - kext) / sp.stride + 1;
    d.cpg = sp.inCh / sp.groups;
    d.mpg = sp.outCh / sp.groups;
    d.patch = d.cpg * sp.kern * sp.kern;
    d.cols = d.oh * d.ow;
    return d;
}

} // namespace

Tensor
conv2dForwardGemm(const Tensor &x, const Tensor &w, const Tensor *bias,
                  const ConvSpec &sp, ScratchArena &scratch)
{
    const ConvDims d = deriveDims(x, sp);
    Tensor y({d.n, sp.outCh, d.oh, d.ow});
    float *col = scratch.colBuffer(d.patch * d.cols);
    const float *xd = x.data();
    const float *wd = w.data();
    const float *bd = bias ? bias->data() : nullptr;
    float *yd = y.data();

    for (int64_t b = 0; b < d.n; ++b) {
        for (int64_t g = 0; g < sp.groups; ++g) {
            im2col(xd + ((b * sp.inCh + g * d.cpg) * d.h * d.w), d.cpg,
                   d.h, d.w, sp.kern, sp.kern, sp.stride, sp.pad,
                   sp.dil, d.oh, d.ow, col);
            gemmRowBiasD(wd + g * d.mpg * d.patch, col,
                         bd ? bd + g * d.mpg : nullptr,
                         yd + ((b * sp.outCh + g * d.mpg) * d.cols),
                         d.mpg, d.patch, d.cols);
        }
    }
    return y;
}

} // namespace kernels
} // namespace se
