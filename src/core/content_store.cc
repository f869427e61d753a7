#include "core/content_store.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace csp {

bool
ensureDirectories(const std::string &dir)
{
    if (dir.empty())
        return true;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    return !ec || std::filesystem::is_directory(dir, ec);
}

bool
readFileToString(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    if (!in.good() && !in.eof())
        return false;
    out = buf.str();
    return true;
}

bool
atomicWriteFile(const std::string &path, std::string_view bytes)
{
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (!parent.empty() && !ensureDirectories(parent.string()))
        return false;
    // A process/thread-unique sibling: same directory, so the rename
    // never crosses filesystems.
    static std::atomic<std::uint64_t> counter{0};
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid()) + '.' +
        std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
    std::ofstream out(tmp, std::ios::binary);
    if (!out)
        return false;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    // Close before checking: the final flush can fail too (a full
    // disk), and a short file must never be renamed into place.
    out.close();
    if (!out) {
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace csp
