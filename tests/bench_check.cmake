# Runs one bench command for ctest and checks what it printed or wrote.
#
#   cmake -DBIN=<binary> "-DARGS=<arguments>" [-DGOLDEN=<file>]
#         [-DOUT_DIR=<dir> -DEXPECT_FILES=<n>] -P tests/bench_check.cmake
#
# GOLDEN: stdout must equal the file byte for byte.  A mismatch leaves the
# actual stdout in the test's working directory as <golden name>.actual.
# OUT_DIR/EXPECT_FILES: OUT_DIR is emptied before the run, and the run
# must leave exactly EXPECT_FILES files in it.
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(DEFINED OUT_DIR)
  file(REMOVE_RECURSE "${OUT_DIR}")
  file(MAKE_DIRECTORY "${OUT_DIR}")
endif()

if(DEFINED GOLDEN)
  get_filename_component(name "${GOLDEN}" NAME_WE)
  set(actual "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
  set(capture OUTPUT_FILE "${actual}")
else()
  set(capture OUTPUT_QUIET)
endif()
execute_process(COMMAND "${BIN}" ${args} ${capture} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} exited with ${rc}")
endif()

if(DEFINED GOLDEN)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${actual}"
                          "${GOLDEN}" RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "stdout of ${BIN} ${ARGS} differs from ${GOLDEN}; "
                        "see ${actual}")
  endif()
  file(REMOVE "${actual}")
endif()

if(DEFINED EXPECT_FILES)
  file(GLOB written "${OUT_DIR}/*")
  list(LENGTH written count)
  if(NOT count EQUAL EXPECT_FILES)
    message(FATAL_ERROR "${BIN} ${ARGS} left ${count} files in ${OUT_DIR}, "
                        "expected ${EXPECT_FILES}: ${written}")
  endif()
endif()
