#include "src/introspect/admin_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>

namespace psp {
namespace {

// Connects to the endpoint; returns the fd, or -1 with `error` set.
int Connect(const AdminEndpoint& endpoint, std::string* error) {
  const bool uds = !endpoint.uds_path.empty();
  const int fd = ::socket(uds ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::strerror(errno);
    return -1;
  }
  int rc;
  if (uds) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, endpoint.uds_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    *error = endpoint.uds_path;
  } else {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(endpoint.port);
    if (::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) != 1) {
      *error = "bad host address: " + endpoint.host;
      ::close(fd);
      return -1;
    }
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    *error = endpoint.host + ":" + std::to_string(endpoint.port);
  }
  if (rc < 0) {
    *error += std::string(": ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  error->clear();
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t done = 0;
  while (done < data.size()) {
    // MSG_NOSIGNAL: a peer that hangs up early is an error, not SIGPIPE.
    const ssize_t n =
        ::send(fd, data.data() + done, data.size() - done, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

// Splits a complete raw HTTP/1.x response.
AdminResponse ParseHttpResponse(const std::string& raw) {
  AdminResponse out;
  // "HTTP/d.d ddd " is 13 bytes.
  const size_t line_end = raw.find("\r\n");
  const size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos || line_end < 13 ||
      raw.compare(0, 5, "HTTP/") != 0 || !IsDigit(raw[5]) || raw[6] != '.' ||
      !IsDigit(raw[7]) || raw[8] != ' ' || !IsDigit(raw[9]) ||
      !IsDigit(raw[10]) || !IsDigit(raw[11]) || raw[12] != ' ') {
    out.error = "malformed HTTP response";
    return out;
  }
  out.status = (raw[9] - '0') * 100 + (raw[10] - '0') * 10 + (raw[11] - '0');
  if (line_end < header_end) {
    out.headers = raw.substr(line_end + 2, header_end - line_end - 2);
  }
  out.body = raw.substr(header_end + 4);
  return out;
}

}  // namespace

AdminResponse AdminRequest(const AdminEndpoint& endpoint,
                           const std::string& method, const std::string& path,
                           const std::string& payload) {
  AdminResponse out;
  const int fd = Connect(endpoint, &out.error);
  if (fd < 0) {
    return out;
  }
  const std::string request =
      method + " " + path + " HTTP/1.1\r\nHost: " + endpoint.host +
      "\r\nConnection: close\r\nContent-Length: " +
      std::to_string(payload.size()) + "\r\n\r\n" + payload;
  if (!SendAll(fd, request)) {
    ::close(fd);
    out.error = "send failed";
    return out;
  }
  std::string raw;
  char chunk[8192];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0 ||
         (n < 0 && errno == EINTR)) {
    if (n > 0) {
      raw.append(chunk, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  return ParseHttpResponse(raw);
}

}  // namespace psp
