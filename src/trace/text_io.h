// Plain-text trace import/export.
//
// The paper replays Harvard NFS traces (Ellard et al., FAST'03), which are
// not redistributable.  This module defines a simple line format so users
// who *do* have real traces (Harvard, SNIA, their own) can convert and
// replay them through this stack:
//
//   # comments and blank lines are ignored
//   file <id> <size_bytes>
//   <op> <file_id> <offset> <size> [client]
//
// with <op> one of open/close/read/write (case-insensitive).  `file` lines
// pre-declare the population (any access to an undeclared file id is an
// error: the replay model pre-creates all files, paper SIV).  The optional
// trailing client column, an integer in [0, 65535], assigns the record to a
// replay lane; it defaults to round-robin over sessions of consecutive
// records per file.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/record.h"

namespace edm::trace {

/// Parses the text format.  Throws std::runtime_error with a line number
/// on malformed input.
Trace load_text_trace(std::istream& is, const std::string& name = "text");

/// Writes a trace in the text format (round-trips with load_text_trace).
void save_text_trace(const Trace& trace, std::ostream& os);

/// File-path convenience wrappers.
Trace load_text_trace_file(const std::string& path);
void save_text_trace_file(const Trace& trace, const std::string& path);

}  // namespace edm::trace
