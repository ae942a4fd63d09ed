#include "storage/file_io.h"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

namespace escape::storage {

void throw_errno(const std::string& op, const std::string& path) {
  throw std::runtime_error(op + " failed for " + path + ": " + std::strerror(errno));
}

void sync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  std::string dir = ".";
  if (slash != std::string::npos) dir = slash == 0 ? "/" : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) throw_errno("open", dir);
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw_errno("fsync", dir);
  }
  ::close(fd);
}

}  // namespace escape::storage
