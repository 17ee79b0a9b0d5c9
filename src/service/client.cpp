#include "src/service/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "src/util/cli.hpp"
#include "src/util/string_util.hpp"

namespace nvp::service {

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

bool Client::connect(const std::string& host, int port, std::string* error) {
  close();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error) *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    if (error) *error = "invalid address '" + host + "'";
    return false;
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    if (error)
      *error = util::format("connect %s:%d: %s", host.c_str(), port,
                            why.c_str());
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  return true;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Client::send(std::string_view request_json) {
  if (fd_ < 0) return false;
  return write_frame(fd_, request_json);
}

std::optional<Response> Client::receive(std::string* error) {
  if (fd_ < 0) {
    if (error) *error = "not connected";
    return std::nullopt;
  }
  std::string payload;
  const FrameStatus status = read_frame(fd_, payload);
  if (status != FrameStatus::kOk) {
    if (error) *error = std::string("frame: ") + to_string(status);
    return std::nullopt;
  }
  std::string parse_error;
  auto document = wire::parse(payload, &parse_error);
  if (!document) {
    if (error) *error = parse_error;
    return std::nullopt;
  }
  Response response;
  response.raw = std::move(payload);
  response.document = std::move(*document);
  response.id = response.document.u64_or("id", 0);
  response.ok = response.document.bool_or("ok", false);
  response.result = response.document.get("result");
  response.error = response.document.get("error");
  if (response.ok && response.result == nullptr) {
    if (error) *error = "ok response without result";
    return std::nullopt;
  }
  if (!response.ok && response.error == nullptr) {
    if (error) *error = "error response without error object";
    return std::nullopt;
  }
  return response;
}

std::optional<Response> Client::call(std::uint64_t id,
                                     std::string_view request_json,
                                     std::string* error) {
  if (!send(request_json)) {
    if (error) *error = "send failed (connection closed?)";
    return std::nullopt;
  }
  auto response = receive(error);
  if (!response) return std::nullopt;
  if (response->id != id) {
    if (error)
      *error = util::format("response id %llu does not match request id %llu",
                            static_cast<unsigned long long>(response->id),
                            static_cast<unsigned long long>(id));
    return std::nullopt;
  }
  return response;
}

bool parse_endpoint(const std::string& endpoint, std::string* host,
                    int* port) {
  std::string host_part = "127.0.0.1";
  std::string port_part = endpoint;
  const std::size_t colon = endpoint.rfind(':');
  if (colon != std::string::npos) {
    host_part = endpoint.substr(0, colon);
    port_part = endpoint.substr(colon + 1);
    if (host_part.empty()) host_part = "127.0.0.1";
  }
  const std::optional<int> value = util::parse_int(port_part);
  if (!value || *value <= 0 || *value > 65535) return false;
  *host = host_part;
  *port = *value;
  return true;
}

}  // namespace nvp::service
