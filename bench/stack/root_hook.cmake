# Passed by run.py as CMAKE_PROJECT_plg_INCLUDE, so CMake reads it at the
# end of the root project() call. Once the root CMakeLists.txt has been read
# it reads this directory's CMakeLists.txt, as `add_subdirectory(stack)` in
# bench/CMakeLists.txt would; when that line is present it does nothing.
# (CMake creates no subdirectory during deferred execution, hence include.)
function(plg_bench_stack_add)
  if(NOT TARGET bench_stack)
    include("${CMAKE_CURRENT_FUNCTION_LIST_DIR}/CMakeLists.txt")
  endif()
endfunction()
cmake_language(DEFER CALL plg_bench_stack_add)
