#include "util/binary_io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace qkmps::io {

namespace {

/// Closes the descriptor on every way out of the scope.
struct Fd {
  int fd;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

std::vector<std::uint8_t> read_file(const std::string& path) {
  // O_NONBLOCK: opening a FIFO must not wait for a writer, only to be
  // refused below.
  const Fd f{::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK)};
  QKMPS_CHECK_MSG(f.fd >= 0, "cannot open " << path);
  struct stat st {};
  QKMPS_CHECK_MSG(::fstat(f.fd, &st) == 0 && S_ISREG(st.st_mode),
                  path << " is not a regular file");
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(st.st_size));
  for (std::size_t got = 0; got < bytes.size();) {
    const ssize_t n = ::read(f.fd, bytes.data() + got, bytes.size() - got);
    if (n < 0 && errno == EINTR) continue;
    QKMPS_CHECK_MSG(n > 0, "short read of " << path << " (" << got << " of "
                                            << bytes.size() << " bytes)");
    got += static_cast<std::size_t>(n);
  }
  return bytes;
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  Fd f{::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644)};
  QKMPS_CHECK_MSG(f.fd >= 0, "cannot open " << path);
  for (std::size_t put = 0; put < bytes.size();) {
    const ssize_t n = ::write(f.fd, bytes.data() + put, bytes.size() - put);
    const int err = errno;
    if (n < 0 && err == EINTR) continue;
    QKMPS_CHECK_MSG(n > 0, "short write to " << path << " (" << put << " of "
                                             << bytes.size() << " bytes): "
                                             << std::strerror(err));
    put += static_cast<std::size_t>(n);
  }
  // close() can report an error the kernel deferred from a write.
  const int closed = ::close(std::exchange(f.fd, -1));
  const int err = errno;
  QKMPS_CHECK_MSG(closed == 0,
                  "short write to " << path << ": " << std::strerror(err));
}

}  // namespace qkmps::io
