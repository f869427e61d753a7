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

std::string
uniqueTempPath(const std::string &path)
{
    static std::atomic<std::uint64_t> counter{0};
    std::ostringstream out;
    out << path << ".tmp." << ::getpid() << '.'
        << counter.fetch_add(1, std::memory_order_relaxed);
    return out.str();
}

bool
atomicWriteFile(const std::string &path, std::string_view bytes)
{
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (!parent.empty() && !ensureDirectories(parent.string()))
        return false;
    const std::string tmp = uniqueTempPath(path);
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
    if (!atomicRename(tmp, path)) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
atomicRename(const std::string &from, const std::string &to)
{
    return std::rename(from.c_str(), to.c_str()) == 0;
}

} // namespace csp
