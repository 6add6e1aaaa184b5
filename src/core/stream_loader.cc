#include "core/stream_loader.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "base/failpoint.hh"
#include "base/logging.hh"

#if defined(__unix__) || defined(__APPLE__)
#define SE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define SE_HAVE_MMAP 0
#endif

namespace se {
namespace core {

namespace {

std::string
readWholeFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is.good())
        throw ModelFileError("cannot open " + path + " for reading");
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

} // namespace

StreamedModel::StreamedModel(const std::string &path,
                             StreamLoaderOptions opts)
{
    SE_FAILPOINT_THROW("stream_open", ModelFileError);
#if SE_HAVE_MMAP
    if (!opts.forceRead) {
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0)
            throw ModelFileError("cannot open " + path +
                                 " for reading");
        struct stat st;
        if (::fstat(fd, &st) != 0 || st.st_size < 0) {
            ::close(fd);
            throw ModelFileError("cannot stat " + path);
        }
        mapLen_ = (size_t)st.st_size;
        // mmap refuses empty files; an empty bundle is invalid
        // anyway, so route it through the parser for the real error.
        map_ = mapLen_ ? ::mmap(nullptr, mapLen_, PROT_READ,
                                MAP_PRIVATE, fd, 0)
                       : MAP_FAILED;
        ::close(fd);
        mapped_ = map_ != MAP_FAILED;
        if (!mapped_) {
            map_ = nullptr;
            buffer_ = readWholeFile(path);
        }
    } else {
        buffer_ = readWholeFile(path);
    }
#else
    (void)opts.forceRead;
    buffer_ = readWholeFile(path);
#endif

    // Everything that can throw once the file is mapped sits in
    // this try, so a refused open never leaks the mapping.
    try {
        const size_t size = mapped_ ? mapLen_ : buffer_.size();
        meta_ = modelv4::parseMeta(filePtr(), size);
        cache_.resize(meta_.directory.size());
    } catch (...) {
#if SE_HAVE_MMAP
        if (mapped_)
            ::munmap(map_, mapLen_);
#endif
        throw;
    }
}

StreamedModel::~StreamedModel()
{
#if SE_HAVE_MMAP
    if (mapped_)
        ::munmap(map_, mapLen_);
#endif
}

const uint8_t *
StreamedModel::filePtr() const
{
    return mapped_ ? (const uint8_t *)map_
                   : (const uint8_t *)buffer_.data();
}

const SeMatrix &
StreamedModel::pieceLocked(size_t index) const
{
    SE_ASSERT(index < cache_.size(), "piece index out of range");
    if (!cache_[index]) {
        if (failpoint::evaluate("stream_piece_decode"))
            throw ModelFileError(
                std::string(failpoint::kInjectedPrefix) +
                " 'stream_piece_decode': piece " +
                std::to_string(index));
        cache_[index] = std::make_unique<SeMatrix>(
            modelv4::decodePiece(filePtr(), meta_, index));
    }
    return *cache_[index];
}

const SeMatrix &
StreamedModel::piece(size_t index) const
{
    base::LockGuard lk(mu_);
    return pieceLocked(index);
}

size_t
StreamedModel::decodedPieces() const
{
    base::LockGuard lk(mu_);
    return (size_t)std::count_if(
        cache_.begin(), cache_.end(),
        [](const std::unique_ptr<SeMatrix> &m) { return m != nullptr; });
}

std::shared_ptr<const std::vector<SeLayerRecord>>
StreamedModel::records() const
{
    base::LockGuard lk(mu_);
    if (records_)
        return records_;
    auto out = std::make_shared<std::vector<SeLayerRecord>>();
    out->resize(meta_.recordNames.size());
    size_t flat = 0;
    for (size_t ri = 0; ri < meta_.recordNames.size(); ++ri) {
        SeLayerRecord &rec = (*out)[ri];
        rec.name = meta_.recordNames[ri];
        rec.pieces.reserve(meta_.pieceCounts[ri]);
        for (uint32_t k = 0; k < meta_.pieceCounts[ri]; ++k) {
            try {
                rec.pieces.push_back(pieceLocked(flat++));
            } catch (const ModelFileError &e) {
                throw ModelFileError("record '" + rec.name + "': " +
                                     e.what());
            }
        }
    }
    records_ = std::move(out);
    return records_;
}

ModelBundle
StreamedModel::bundle() const
{
    ModelBundle b;
    b.records = *records();
    b.dense = meta_.dense;
    return b;
}

} // namespace core
} // namespace se
