# readme_snippets — turn README.md's C++ snippets into one translation
# unit, so that a test can compile them against the library. Each ```cpp
# block becomes the body of its own function, under a #line directive
# that points compiler errors at README.md. The blocks' #include lines
# are hoisted to the top of the file (and blanked in place, so the line
# numbers hold). The names the prose assumes in scope (cfg, spec, runner,
# result, scenarios, measure_one) are declared by tests/readme_prelude.hpp.
#
# Usage: cmake -DREADME=<README.md> -DOUT=<generated .cpp> -P readme_snippets.cmake
cmake_minimum_required(VERSION 3.20)
file(READ "${README}" text)
set(fence_open "```cpp\n")
string(LENGTH "${fence_open}" fence_open_len)
set(includes "")
set(functions "")
set(count 0)
set(rest "${text}")
set(consumed 0)  # characters of text before `rest`
while(TRUE)
  string(FIND "${rest}" "${fence_open}" open)
  if(open EQUAL -1)
    break()
  endif()
  math(EXPR body_at "${open} + ${fence_open_len}")
  string(SUBSTRING "${rest}" ${body_at} -1 rest)
  string(FIND "${rest}" "\n```" close)
  if(close EQUAL -1)
    message(FATAL_ERROR "${README}: unterminated ```cpp block")
  endif()
  math(EXPR body_len "${close} + 1")
  string(SUBSTRING "${rest}" 0 ${body_len} body)
  # The README line the block's body starts on.
  math(EXPR consumed "${consumed} + ${body_at}")
  string(SUBSTRING "${text}" 0 ${consumed} before)
  string(REGEX MATCHALL "\n" newlines "${before}")
  list(LENGTH newlines line)
  math(EXPR line "${line} + 1")
  math(EXPR consumed "${consumed} + ${body_len}")
  string(SUBSTRING "${rest}" ${body_len} -1 rest)

  string(REGEX MATCHALL "#include[^\n]*" block_includes "${body}")
  foreach(include IN LISTS block_includes)
    string(FIND "${includes}" "${include}\n" seen)
    if(seen EQUAL -1)
      string(APPEND includes "${include}\n")
    endif()
  endforeach()
  string(REGEX REPLACE "#include[^\n]*" "" body "${body}")
  math(EXPR count "${count} + 1")
  string(APPEND functions
         "void snippet_${count}() {\n#line ${line} \"${README}\"\n${body}}\n\n")
endwhile()
if(count EQUAL 0)
  message(FATAL_ERROR "${README}: no ```cpp blocks found")
endif()
file(WRITE "${OUT}.tmp"
     "// Generated from README.md by scripts/readme_snippets.cmake.\n"
     "${includes}#include \"readme_prelude.hpp\"\n\n"
     "namespace readme_snippets {\n\n${functions}}  // namespace readme_snippets\n")
file(COPY_FILE "${OUT}.tmp" "${OUT}" ONLY_IF_DIFFERENT)
file(REMOVE "${OUT}.tmp")
