// File-system helpers shared by the file-backed stores.
#pragma once

#include <string>

namespace escape::storage {

/// Throws std::runtime_error naming `op`, `path` and errno's message.
[[noreturn]] void throw_errno(const std::string& op, const std::string& path);

/// Fsyncs the directory holding `path`. A file's creation, or a rename onto
/// it, survives power loss only once its directory entry is durable.
void sync_parent_dir(const std::string& path);

}  // namespace escape::storage
