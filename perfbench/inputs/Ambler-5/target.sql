CREATE TABLE Student (
    sid INTEGER PRIMARY KEY,
    sname VARCHAR(255)
);
CREATE TABLE Professor (
    pid INTEGER PRIMARY KEY,
    pname VARCHAR(255)
);
CREATE TABLE Advises (
    sid INTEGER PRIMARY KEY,
    pid INTEGER
);
