// AdminRequest: the one blocking HTTP/1.1 client for the admin plane
// (src/introspect/admin.h). pspctl, psp_tracejoin, the scrape bench and the
// admin tests all talk to an endpoint through it, over TCP or a UNIX-domain
// socket: one connection per request (`Connection: close`), the response
// read to EOF.
//
// The status line is parsed strictly — `HTTP/<d>.<d> <3 digits> ` — so a
// peer that answers garbage is an error, never a misread status.
#ifndef PSP_SRC_INTROSPECT_ADMIN_CLIENT_H_
#define PSP_SRC_INTROSPECT_ADMIN_CLIENT_H_

#include <cstdint>
#include <string>

namespace psp {

struct AdminEndpoint {
  std::string host = "127.0.0.1";  // IPv4 literal
  uint16_t port = 0;
  std::string uds_path;  // non-empty: connect here instead of host:port
};

struct AdminResponse {
  // Empty on success. Otherwise a transport failure or "malformed HTTP
  // response", and the fields below are unset.
  std::string error;
  int status = 0;
  std::string headers;  // the header lines after the status line
  std::string body;

  bool ok() const { return error.empty(); }
};

// Sends `method path` with `payload` as the body and waits for the reply.
AdminResponse AdminRequest(const AdminEndpoint& endpoint,
                           const std::string& method, const std::string& path,
                           const std::string& payload = "");

}  // namespace psp

#endif  // PSP_SRC_INTROSPECT_ADMIN_CLIENT_H_
