#include "src/daemon/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "src/daemon/protocol.h"

namespace sdc {
namespace {

// Writes the whole buffer, riding out short writes and EINTR. Returns false once the
// peer is gone -- the handler then just drops the connection.
bool WriteAll(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

DaemonServer::DaemonServer(CampaignManager* manager, std::string socket_path)
    : manager_(manager), socket_path_(std::move(socket_path)) {}

DaemonServer::~DaemonServer() {
  Stop();
  std::lock_guard<std::mutex> lock(threads_mutex_);
  for (std::thread& thread : connection_threads_) {
    if (thread.joinable()) {
      thread.join();
    }
  }
}

bool DaemonServer::Start(std::string& error) {
  sockaddr_un address{};
  if (socket_path_.size() >= sizeof(address.sun_path)) {
    error = "socket path too long (max " +
            std::to_string(sizeof(address.sun_path) - 1) + " bytes): " + socket_path_;
    return false;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
  ::unlink(socket_path_.c_str());  // a stale socket from a dead daemon would block bind
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) < 0) {
    error = "bind " + socket_path_ + ": " + std::strerror(errno);
    ::close(fd);
    return false;
  }
  if (::listen(fd, 16) < 0) {
    error = std::string("listen: ") + std::strerror(errno);
    ::close(fd);
    ::unlink(socket_path_.c_str());
    return false;
  }
  listen_fd_.store(fd);
  return true;
}

void DaemonServer::Serve() {
  while (!stopping_.load()) {
    const int listen_fd = listen_fd_.load();
    if (listen_fd < 0) {
      break;
    }
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // Stop() closed the listening socket
    }
    std::lock_guard<std::mutex> lock(threads_mutex_);
    connection_threads_.emplace_back([this, fd] { HandleConnection(fd); });
  }
}

void DaemonServer::Stop() {
  stopping_.store(true);
  const int fd = listen_fd_.exchange(-1);
  if (fd >= 0) {
    // shutdown() unblocks a thread parked in accept on platforms where close alone
    // does not; the subsequent accept failure ends the Serve loop.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

void DaemonServer::HandleConnection(int fd) {
  static constexpr char kTooLong[] = "err proto line too long\n";
  std::string buffer;
  size_t scanned = 0;  // prefix of `buffer` already known to hold no newline
  char chunk[4096];
  while (true) {
    // Serve every complete line already buffered before reading more.
    size_t newline;
    while ((newline = buffer.find('\n', scanned)) != std::string::npos) {
      if (newline > kMaxRequestLineBytes) {
        WriteAll(fd, kTooLong, sizeof(kTooLong) - 1);
        ::close(fd);
        return;
      }
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      scanned = 0;
      if (!line.empty() && line.back() == '\r') {
        line.pop_back();
      }
      const ProtocolReply reply = HandleRequestLine(*manager_, line);
      const std::string header = reply.line + "\n";
      if (!WriteAll(fd, header.data(), header.size()) ||
          !WriteAll(fd, reply.payload.data(), reply.payload.size())) {
        ::close(fd);
        return;
      }
      if (reply.shutdown) {
        ::close(fd);
        Stop();
        return;
      }
    }
    // No newline in what is buffered: the next scan resumes after it, so a long line
    // costs one pass, and a line already past the cap is refused without waiting for
    // its end.
    scanned = buffer.size();
    if (buffer.size() > kMaxRequestLineBytes) {
      WriteAll(fd, kTooLong, sizeof(kTooLong) - 1);
      break;
    }
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;  // peer closed (a trailing partial line is a dropped request by contract)
    }
    buffer.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
}

}  // namespace sdc
