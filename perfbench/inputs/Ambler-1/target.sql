CREATE TABLE Employee (
    eid INTEGER PRIMARY KEY,
    name VARCHAR(255),
    title VARCHAR(255),
    salary INTEGER
);
CREATE TABLE EmployeeDetail (
    eid INTEGER PRIMARY KEY,
    photo BLOB,
    bio VARCHAR(255)
);
